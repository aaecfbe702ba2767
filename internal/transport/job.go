package transport

import "sync"

// Job is what the endpoints of one in-process job (NewShmJob) share
// besides their routes: whether an engine reads every one of them
// undecorated (Claim, Direct), and the values layers above keep for the
// job's ranks in common (Attach).
type Job struct {
	mu      sync.Mutex
	claimed []bool // by world rank: an engine reads the endpoint itself
	left    int    // endpoints not claimed yet
	sealed  bool   // Direct has answered, and its answer is final
	shared  map[any]*jobShare
}

type jobShare struct {
	v    any
	refs int
}

// Claim is an engine's declaration that it reads this endpoint itself,
// undecorated. It returns the endpoint's job, or nil for an endpoint of
// none.
func (m *Mux) Claim() *Job {
	if j := m.job; j != nil {
		j.mu.Lock()
		defer j.mu.Unlock()
		if !j.sealed && !j.claimed[m.rank] {
			j.claimed[m.rank] = true
			j.left--
		}
	}
	return m.job
}

// Direct reports whether an engine reads every endpoint of the job
// undecorated. The first call fixes the answer for the job's life, so
// every rank gets the same one whenever it asks; a claim made after it
// counts for nothing. A launcher claims every endpoint before any rank
// runs (mpi.RunWith builds every engine first), so a rank's first
// question sees them all.
func (j *Job) Direct() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sealed = true
	return j.left == 0
}

// Attach returns the value the job's ranks share under key, made by mk
// for its first holder, and counts one more holder. Every Attach is
// undone by one Detach; the last forgets the value.
func (j *Job) Attach(key any, mk func() any) any {
	j.mu.Lock()
	defer j.mu.Unlock()
	e := j.shared[key]
	if e == nil {
		e = &jobShare{v: mk()}
		j.shared[key] = e
	}
	e.refs++
	return e.v
}

// Detach drops one holder of the value shared under key.
func (j *Job) Detach(key any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if e := j.shared[key]; e != nil {
		if e.refs--; e.refs == 0 {
			delete(j.shared, key)
		}
	}
}

// Shared is how many values the job's ranks share.
func (j *Job) Shared() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.shared)
}
