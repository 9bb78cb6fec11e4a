package main

import (
	"fmt"
	"time"

	"pcltm/internal/wal"
	"pcltm/store"
)

// replayInto applies the parts of the stream that ran to the model and
// returns how many requests that was. Failed requests are skipped: their
// outcome is unknown, and any failure already marks the run incorrect.
func (m *model) replayInto(g *generator, parts []ran, failed []uint64) uint64 {
	skip := make(map[uint64]bool, len(failed))
	for _, idx := range failed {
		skip[idx] = true
	}
	var n uint64
	for _, p := range parts {
		for k := uint64(0); k < p.count; k++ {
			idx := p.first + k*p.stride
			n++
			if skip[idx] {
				continue
			}
			r := g.at(idx)
			m.apply(&r)
		}
	}
	return n
}

// matches compares every key of st with the model, which covers the
// conservation invariant (the sum of values is the preset plus every
// acknowledged increment; transfers conserve) key by key.
func (m *model) matches(g *generator, st *store.Store[int64, int64], what string) error {
	var wantSum, gotSum int64
	var firstBad error
	for _, k := range g.keys {
		v, _ := st.Get(k)
		wantSum += m.val[k]
		gotSum += v
		if v != m.val[k] && firstBad == nil {
			firstBad = fmt.Errorf("%s: key %d holds %d, want %d", what, k, v, m.val[k])
		}
	}
	if gotSum != wantSum {
		return fmt.Errorf("%s: conservation broken: values sum to %d, want %d", what, gotSum, wantSum)
	}
	return firstBad
}

// recovered re-reads the closed system's log as recovery would — scan,
// then replay into a fresh store — and checks that the scan is clean
// and every acknowledged write survived. It returns the two times.
func recovered(s *system, m *model) (scanS, replayS float64, err error) {
	backend := s.backend
	if s.walDir != "" {
		// A fresh backend on the directory: nothing but the files carries over.
		if backend, err = wal.NewFileBackend(s.walDir); err != nil {
			return 0, 0, err
		}
	}
	t0 := time.Now()
	scan, err := wal.Scan(backend)
	if err != nil {
		return 0, 0, fmt.Errorf("durability: scan: %w", err)
	}
	scanS = time.Since(t0).Seconds()
	if !scan.Clean || len(scan.Torn) > 0 || scan.DroppedRecords() > 0 || scan.CrossVoided > 0 {
		return 0, 0, fmt.Errorf("durability: scan not clean after graceful close: clean=%v torn=%d dropped=%d cross_voided=%d",
			scan.Clean, len(scan.Torn), scan.DroppedRecords(), scan.CrossVoided)
	}
	fresh := store.New[int64, int64](s.w.storeConfig())
	t0 = time.Now()
	if err := store.Replay(fresh, store.Int64Codec(), scan.Records, 0); err != nil {
		return 0, 0, fmt.Errorf("durability: %w", err)
	}
	replayS = time.Since(t0).Seconds()
	return scanS, replayS, m.matches(s.gen, fresh, "durability: recovered store")
}
