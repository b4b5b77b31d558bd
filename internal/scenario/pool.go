package scenario

import "sync"

// pool runs a scenario's executions on a fixed number of slots. The
// caller holds one slot from newPool on (the primary run) until release.
// A slot that frees goes to the earliest-added job that is ready, so with
// one slot the jobs run after the primary, one at a time, in the order
// they were added.
type pool struct {
	mu      sync.Mutex
	free    int
	jobs    []*poolJob
	stopped bool
	wg      sync.WaitGroup
}

// poolJob is one queued execution.
type poolJob struct {
	run            func()
	ready, started bool
}

// newPool returns a pool with the given number of slots (at least one),
// one of them already held by the caller.
func newPool(slots int) *pool {
	return &pool{free: max(slots, 1) - 1}
}

// add queues run; it starts once ready (now, or at markReady) and a slot
// is free.
func (p *pool) add(ready bool, run func()) *poolJob {
	p.mu.Lock()
	defer p.mu.Unlock()
	j := &poolJob{run: run, ready: ready}
	p.jobs = append(p.jobs, j)
	p.dispatch()
	return j
}

// markReady lets a job added unready start.
func (p *pool) markReady(j *poolJob) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j.ready = true
	p.dispatch()
}

// release frees the caller's slot.
func (p *pool) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free++
	p.dispatch()
}

// stop starts no further job; jobs already running finish.
func (p *pool) stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
}

// wait blocks until every started job has returned.
func (p *pool) wait() { p.wg.Wait() }

// dispatch starts ready jobs in add order while slots are free. p.mu is
// held.
func (p *pool) dispatch() {
	for _, j := range p.jobs {
		if p.free == 0 || p.stopped {
			return
		}
		if !j.ready || j.started {
			continue
		}
		j.started = true
		p.free--
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			j.run()
			p.release()
		}()
	}
}
