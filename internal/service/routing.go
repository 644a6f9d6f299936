package service

import (
	"sort"

	"repro/internal/wal"
)

// routeMap is the explicit graph-to-shard routing table. It holds only the
// exceptions — graphs migrated away from their hash shard; every other ID
// falls through to routeHash. The map behind the atomic pointer is
// immutable: writers copy-on-write a replacement under routeMu and publish
// it with one store, so the read path is a lock-free, allocation-free map
// lookup (TestRoutingLookupNoAllocs pins that).
type routeMap = map[GraphID]*shard

// routeHash is the FNV-1a hash assigning unrouted GraphIDs to shards — the
// single definition shared by the serving path and the tests' shard
// planning, so the two can never drift. Inline rather than hash.Hash32:
// the interface route would heap-allocate on every lock-free read.
func routeHash(id GraphID) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return h
}

// defaultShard is id's hash-assigned shard: where it lives unless an
// explicit route says otherwise. Reduce in uint32 space: converting the
// hash to int first would overflow to a negative index on 32-bit platforms
// whenever the high bit is set.
func (s *Service) defaultShard(id GraphID) *shard {
	return s.shards[int(routeHash(id)%uint32(len(s.shards)))]
}

// shardFor resolves id's owning shard: the routing table's entry when one
// exists, the hash default otherwise. Lock-free and allocation-free — this
// is on every read and submit path.
func (s *Service) shardFor(id GraphID) *shard {
	if sh, ok := (*s.routes.Load())[id]; ok {
		return sh
	}
	return s.defaultShard(id)
}

// RoutedGraphs returns the number of graphs currently routed away from
// their hash shard (the routing table's size).
func (s *Service) RoutedGraphs() int { return len(*s.routes.Load()) }

// lookupState resolves id to its owning shard and graphState, chasing the
// routing table across migration windows: a reader that resolved the source
// shard just before a flip can find the graph already retired there, so a
// miss re-resolves the route and retries on the new owner. The loop is
// bounded — each extra iteration requires another whole migration of the
// same graph to land inside this call. (sh, nil) means the graph does not
// exist. Lock-free throughout.
func (s *Service) lookupState(id GraphID) (*shard, *graphState) {
	sh := s.shardFor(id)
	for hops := 0; ; hops++ {
		if gs := sh.lookup(id); gs != nil {
			return sh, gs
		}
		nsh := s.shardFor(id)
		if nsh == sh || hops == maxForwardHops {
			// The route did not move (or the hop cap is hit): absent.
			return sh, nil
		}
		sh = nsh
	}
}

// setRouteLocked publishes a new routing table with id mapped to sh (or
// removed when sh is nil or the hash default — entries equal to the default
// are normalized away so the table holds only true exceptions). Caller
// holds routeMu.
func (s *Service) setRouteLocked(id GraphID, sh *shard) {
	old := *s.routes.Load()
	m := make(routeMap, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	if sh == nil || sh == s.defaultShard(id) {
		delete(m, id)
	} else {
		m[id] = sh
	}
	s.routes.Store(&m)
}

// dropRoute removes id's routing entry after the graph was dropped, with a
// best-effort durable removal record. An append failure is tolerated: a
// stale route entry for a graph with no checkpoint is ignored by recovery
// (the graph does not exist durably) and compacted away at the next Open,
// so correctness never depends on the delete record landing.
func (s *Service) dropRoute(id GraphID) {
	s.routeMu.Lock()
	defer s.routeMu.Unlock()
	if _, ok := (*s.routes.Load())[id]; !ok {
		return
	}
	if s.routeLog != nil {
		s.routeLog.Append(wal.RouteRecord{Graph: string(id), Shard: -1})
	}
	s.setRouteLocked(id, nil)
}

// commitRoute durably records and publishes id's new shard — the commit
// point of a migration. Everything before it (freeze, checkpoint, install)
// is reconstructible or discardable; once the route record is fsynced,
// recovery after any crash places id on dst.
func (s *Service) commitRoute(id GraphID, dst *shard, seq uint64) error {
	s.routeMu.Lock()
	defer s.routeMu.Unlock()
	if s.routeLog != nil {
		rec := wal.RouteRecord{Graph: string(id), Shard: dst.idx, Seq: seq}
		if dst == s.defaultShard(id) {
			// Migrating back to the hash shard: a removal record keeps the
			// log and table normalized to true exceptions only.
			rec.Shard = -1
		}
		if err := s.routeLog.Append(rec); err != nil {
			return err
		}
	}
	s.setRouteLocked(id, dst)
	return nil
}

// loadRoutes resolves the route log's records into the initial routing
// table at recovery: last record per graph wins (file order is commit
// order), removals and entries for graphs that do not exist durably (no
// checkpoint — dropped, or created but never route-flipped) fold away, and
// a shard index from a run with more shards wraps into the current range.
// The surviving set is compacted back so the log never grows without
// bound. Called by openWAL before the recovery scan routes any graph, so
// the scan's shardFor calls already consult the logged routes.
func (s *Service) loadRoutes(recs []wal.RouteRecord, ckpts map[string]*wal.Checkpoint) error {
	routed := map[string]int{}
	for _, r := range recs {
		if r.Shard < 0 {
			delete(routed, r.Graph)
			continue
		}
		routed[r.Graph] = r.Shard
	}
	m := make(routeMap, len(routed))
	var live []wal.RouteRecord
	for id, idx := range routed {
		if ckpts[id] == nil {
			continue
		}
		sh := s.shards[idx%len(s.shards)]
		if sh == s.defaultShard(GraphID(id)) {
			continue
		}
		m[GraphID(id)] = sh
		live = append(live, wal.RouteRecord{Graph: id, Shard: sh.idx})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Graph < live[j].Graph })
	if err := s.routeLog.Compact(live); err != nil {
		return err
	}
	s.routes.Store(&m)
	return nil
}
