package core

import "simany/internal/vtime"

// Hooks for this directory's external tests (package core_test), which
// import packages that import core.

// SetPickHook installs f as k's observer of every scheduling decision.
func SetPickHook(k *Kernel, f func(c *Core, key vtime.Time, runnable int)) { k.onPick = f }

// Stepping reports whether c's domain is inside a step.
func Stepping(c *Core) bool { return c.dom.stepping != nil }

// StallPreorder returns the IDs of the stall-heap members of c's domain in
// heap pre-order, the order stallBest visits them under the Inf limit.
func StallPreorder(c *Core) []int {
	h := c.dom.sq.heap
	var ids []int
	var walk func(i int)
	walk = func(i int) {
		if i < len(h) {
			ids = append(ids, h[i].c.ID)
			walk(2*i + 1)
			walk(2*i + 2)
		}
	}
	walk(0)
	return ids
}
