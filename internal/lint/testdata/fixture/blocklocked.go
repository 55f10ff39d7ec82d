package fixture

import "sync"

// Seeded blockwhilelocked violations and accepted shapes.

type relay struct {
	mu sync.Mutex
	wg sync.WaitGroup
	ch chan int
}

// recvLocked parks on a channel receive while holding mu: violation.
func (r *relay) recvLocked() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return <-r.ch
}

// waitLocked parks on WaitGroup.Wait while holding mu: violation.
func (r *relay) waitLocked() {
	r.mu.Lock()
	r.wg.Wait()
	r.mu.Unlock()
}

type board struct {
	rw  sync.RWMutex
	in  chan int
	out chan int
}

// shuffleLocked parks in a select with no default while holding a read
// lock: violation (one finding for the select, not per comm).
func (b *board) shuffleLocked() {
	b.rw.RLock()
	defer b.rw.RUnlock()
	select {
	case v := <-b.in:
		_ = v
	case b.out <- 0:
	}
}

// recvUnlocked releases the lock before blocking: no diagnostic.
func (r *relay) recvUnlocked() int {
	r.mu.Lock()
	r.mu.Unlock()
	return <-r.ch
}

// condQueue is the canonical condvar loop: Wait releases the same struct's
// mutex while parked, so holding queue.mu across cond.Wait is exempt.
type condQueue struct {
	mu   sync.Mutex
	cond sync.Cond
	n    int
}

func (q *condQueue) pop() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 {
		q.cond.Wait()
	}
	q.n--
	return q.n
}

// pollLocked uses select-with-default as a non-blocking poll: no diagnostic.
func (r *relay) pollLocked() (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case v := <-r.ch:
		return v, true
	default:
		return 0, false
	}
}

// sendLockedAnnotated documents a deliberate locked send: no diagnostic.
func (r *relay) sendLockedAnnotated(v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	//lint:blockwhilelocked the channel is buffered and drained by the owner
	r.ch <- v
}

// engine is core.Engine with the lint audit's winning seed in wait: the
// context watcher is joined while a queue lock is held. A watcher caught
// mid-Abort takes every queue lock before it closes watcherDone, so the two
// park on each other. Only a cancellation that lands as the workers exit
// lines them up, and no test schedule did. Violation.
type engine struct {
	queues      []*relay
	watcherDone chan struct{}
}

func (e *engine) wait() {
	q := e.queues[0]
	q.mu.Lock()
	<-e.watcherDone
	q.mu.Unlock()
}
