// lifecycle.go bounds what a long-lived server retains: DELETE removes
// a dataset (canceling its in-flight warm), Config.MaxDatasets evicts
// the least-recently-queried ready datasets when registrations push
// past the cap, and Config.DatasetTTL evicts ready datasets whose
// snapshots have gone unqueried. Eviction and deletion race queries
// safely by the copy-on-write contract: a query resolves one immutable
// *Snapshot pointer up front and finishes on it regardless of what the
// registry does afterwards — releasing a snapshot only drops the
// registry's reference, never the bytes an in-flight response is
// reading.

package meshd

import (
	"fmt"
	"sort"
	"time"
)

// Delete removes the dataset and cancels its in-flight warm, if any.
// Queries already holding the dataset's snapshot finish normally;
// subsequent lookups are ErrNotFound. Deleting during a warm is legal —
// the canceled warm aborts at its next read and publishes nothing.
func (s *Server) Delete(name string) error {
	s.mu.Lock()
	d := s.datasets[name]
	if d == nil {
		s.mu.Unlock()
		return fmt.Errorf("%w: dataset %q", ErrNotFound, name)
	}
	delete(s.datasets, name)
	s.mu.Unlock()
	d.mu.Lock()
	// Bump the generation so a warm goroutine mid-transition (between
	// its context check and its publish) can never install state into
	// the detached entry, then cancel the warm's context to abort its
	// stream or backoff sleep promptly.
	d.gen++
	cancel := d.cancel
	d.cancel = nil
	d.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return nil
}

// evictable reports whether the dataset may be evicted right now (a
// published snapshot and no warm in flight — evicting a warming dataset
// would turn registration into a race), plus its last-use time.
func (d *dsEntry) evictable() (bool, int64) {
	d.mu.Lock()
	warming := d.warming
	d.mu.Unlock()
	return !warming && d.snap.Load() != nil, d.lastUsed.Load()
}

// enforceMaxDatasets applies the MaxDatasets cap after a registration:
// while over the cap, the least-recently-queried evictable dataset is
// released. keep (the just-registered entry) is never evicted, so a
// registration cannot evict itself. Warming datasets don't count as
// evictable; a burst of concurrent cold registrations may therefore
// briefly exceed the cap, bounded by the in-flight warm count.
func (s *Server) enforceMaxDatasets(keep *dsEntry) {
	if s.cfg.MaxDatasets <= 0 {
		return
	}
	for {
		s.mu.Lock()
		over := len(s.datasets) - s.cfg.MaxDatasets
		var victim *dsEntry
		var victimUsed int64
		if over > 0 {
			for _, d := range s.datasets {
				if d == keep {
					continue
				}
				ok, used := d.evictable()
				if ok && (victim == nil || used < victimUsed) {
					victim = d
					victimUsed = used
				}
			}
		}
		s.mu.Unlock()
		if over <= 0 || victim == nil {
			return
		}
		s.Delete(victim.name)
	}
}

// janitor periodically evicts ready datasets idle past DatasetTTL,
// until shutdown, which joins it. The sweep interval tracks the TTL so
// eviction lag is a fraction of the TTL itself.
func (s *Server) janitor() {
	defer s.running.Done()
	interval := s.cfg.DatasetTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.closing:
			return
		case <-s.base.Done():
			return
		case <-t.C:
			s.evictIdle(time.Now())
		}
	}
}

// evictIdle releases every evictable dataset whose last query is older
// than DatasetTTL. Exposed to tests through the janitor's clock; the
// eviction itself is Delete, so the copy-on-write guarantees apply.
func (s *Server) evictIdle(now time.Time) int {
	ttl := s.cfg.DatasetTTL
	if ttl <= 0 {
		return 0
	}
	cutoff := now.Add(-ttl).UnixNano()
	s.mu.RLock()
	var idle []string
	for name, d := range s.datasets {
		if ok, used := d.evictable(); ok && used < cutoff {
			idle = append(idle, name)
		}
	}
	s.mu.RUnlock()
	sort.Strings(idle)
	evicted := 0
	for _, name := range idle {
		if s.Delete(name) == nil {
			evicted++
		}
	}
	return evicted
}
