package sim

// Event is a one-shot virtual-time condition: processes wait on it, and
// once fired every current and future waiter proceeds immediately. It is
// the synchronization primitive the message-passing layer builds request
// completion on.
//
// The zero value is an unfired event, so callers can embed one by value
// instead of allocating it. The first waiter is stored inline; only
// events with several concurrent waiters (barrier-style rounds) grow the
// overflow slice.
type Event struct {
	fired bool
	first *Proc
	more  []*Proc
}

// NewEvent returns an unfired event.
func (e *Engine) NewEvent() *Event { return &Event{} }

// Fired reports whether the event has fired.
func (ev *Event) Fired() bool { return ev.fired }

// Fire marks the event fired and wakes all waiters in the order they
// started waiting, each through its own engine. Firing an already-fired
// event is a no-op. Fire may be called from a running process or from a
// task completion callback.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	if p := ev.first; p != nil {
		ev.first = nil
		p.eng.wake(p)
	}
	for _, p := range ev.more {
		p.eng.wake(p)
	}
	ev.more = nil
}

// WaitEvent blocks the calling process until ev fires. Returns immediately
// if it has already fired.
func (p *Proc) WaitEvent(ev *Event, reason string) {
	p.WaitEventReason(ev, StaticReason(reason))
}

// WaitEventReason is WaitEvent with a lazily rendered block reason:
// nothing is formatted unless a deadlock report is built or a probe is
// attached. Hot callers (the message-passing wait path) use it to avoid
// a per-wait Sprintf.
func (p *Proc) WaitEventReason(ev *Event, r Reason) {
	if ev.fired {
		return
	}
	if ev.first == nil {
		ev.first = p
	} else {
		ev.more = append(ev.more, p)
	}
	p.block(r)
}
