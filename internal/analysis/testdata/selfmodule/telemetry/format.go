package telemetry

import "fmt"

// The renderers (timeline, profile diff, critical path, skelprof) share
// one vocabulary for durations and percentages so the reports read
// consistently and the conventions live in one place.

// Seconds formats a virtual duration with the reports' standard four
// decimals: "1.2346 s".
func Seconds(t float64) string { return SecondsPrec(t, 4) }

// SecondsPrec formats a virtual duration with prec decimals.
func SecondsPrec(t float64, prec int) string { return fmt.Sprintf("%.*f s", prec, t) }

// Pct formats an unsigned percentage with one decimal: "45.2%".
func Pct(p float64) string { return fmt.Sprintf("%.1f%%", p) }

// SignedPct formats a signed percentage with two decimals: "+3.25%".
func SignedPct(p float64) string { return fmt.Sprintf("%+.2f%%", p) }
