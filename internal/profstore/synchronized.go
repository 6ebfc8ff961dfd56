package profstore

import "sync"

// Synchronized wraps an archive for concurrent use: every call holds one
// lock. Store and ShardedStore are not goroutine-safe; a service that
// archives finished runs while HTTP handlers and scrapes read the archive
// shares one Synchronized view between them. Wrapping a Synchronized
// archive returns it unchanged.
func Synchronized(a Archive) Archive {
	if s, ok := a.(*synchronized); ok {
		return s
	}
	return &synchronized{a: a}
}

type synchronized struct {
	mu sync.Mutex
	a  Archive
}

func (s *synchronized) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.a.Len()
}

func (s *synchronized) EvictedTotal() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.a.EvictedTotal()
}

func (s *synchronized) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.a.List()
}

func (s *synchronized) Put(rec *Record) (Meta, []string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.a.Put(rec)
}

func (s *synchronized) Get(id string) (*Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.a.Get(id)
}

func (s *synchronized) Resolve(id string) (Meta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.a.Resolve(id)
}
