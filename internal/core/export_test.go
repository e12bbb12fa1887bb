package core

import "time"

// SetSolveClock replaces the clock svc times its solves with. Solver wall
// time is the eviction cost of an answer, so a frozen clock records every
// cost as zero and leaves a single-shard cache exact LRU whatever the
// scheduler does to the solves.
func SetSolveClock(svc *Service, now func() time.Time) { svc.now = now }
