//go:build go1.23

package sim

import "iter"

// start makes run the proc's coroutine. Nothing runs until the first
// resume; a stop before it discards the body unrun.
func (p *Proc) start() {
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.run()
	})
}
