// Package lockscope is a fixture for the lockscope analyzer: the
// compute-outside-the-lock rule. Critical sections may move data
// (fields, builtins, conversions); they may not call functions.
package lockscope

import "sync"

type counter struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  map[string]int
}

func note(string) {}

func (c *counter) callUnderLock(k string) {
	c.mu.Lock()
	c.n[k]++
	note(k) // want `note called while "c\.mu" is held`
	c.mu.Unlock()
}

func (c *counter) computeOutside(k string) {
	c.mu.Lock()
	c.n[k]++
	c.mu.Unlock()
	note(k)
}

func (c *counter) builtinsAllowed(k string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.n) == 0 {
		c.n = make(map[string]int)
	}
	delete(c.n, k)
}

func (c *counter) deferredUnlockStillHeld(k string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	note(k) // want `note called while "c\.mu" is held`
}

func (c *counter) earlyReturnUnlocks(k string) {
	c.mu.Lock()
	if _, ok := c.n[k]; ok {
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	note(k)
}

func (c *counter) readLockCall(k string) int {
	c.rw.RLock()
	v := c.n[k]
	note(k) // want `note called while "c\.rw" is held`
	c.rw.RUnlock()
	return v
}

func (c *counter) readLockClean(k string) int {
	c.rw.RLock()
	v := c.n[k]
	c.rw.RUnlock()
	note(k)
	return v
}

func (c *counter) goroutineDoesNotInherit() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		note("async") // runs on its own goroutine, without the creator's lock
	}()
}

func (c *counter) conversionsAllowed(x int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n["x"] = int(uint32(x))
}
