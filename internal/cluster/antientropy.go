package cluster

import (
	"context"
	"time"
)

// Anti-entropy repair: where read repair waits for a lucky quorum read to
// notice a stale replica, the sweeper walks every replica of every item
// during idle ticks and pushes the observed maximum committed version and
// configuration generation to the laggards. Long partitions heal without
// traffic; and because an inspection names every expired-lease lock holder,
// the sweeper resolves the orphans of idle items nobody else would trip over.

// SweepOnce runs one synchronous anti-entropy pass: inspect every replica
// of every item (sorted order — deterministic harnesses call this behind a
// quiesce barrier), resolve the orphans the inspections named, compute the
// maximum committed (vn, val) and (gen, cfg) among the respondents, and
// fire-and-forget a RepairReq to every replica that is behind. The DM-side
// guards (strictly newer, no writer in flight) make a stale or duplicated
// repair harmless. Returns the number of repair messages sent.
func (s *Store) SweepOnce(ctx context.Context) (int, error) {
	repairs := 0
	s.Stats.AntiEntropySweeps.Inc()
	for _, it := range s.Items() {
		if err := ctx.Err(); err != nil {
			return repairs, err
		}
		type replicaState struct {
			dm   string
			resp InspectResp
		}
		var got []replicaState
		var orphans []TxnID
		for _, dm := range it.DMs {
			resp, err := s.Inspect(ctx, dm, it.Name)
			if err != nil {
				if ctx.Err() != nil {
					return repairs, ctx.Err()
				}
				continue // crashed or partitioned; next sweep catches it up
			}
			got = append(got, replicaState{dm: dm, resp: resp})
			orphans = append(orphans, resp.Orphans...)
		}
		// The repairs below work from what the inspections saw: a replica an
		// orphan's resolution just changed catches up on the next sweep.
		s.resolveAll(ctx, orphans)
		if len(got) == 0 {
			continue
		}
		var maxVN, maxGen int
		var bestVal any
		var bestCfg = it.Config
		for _, g := range got {
			if g.resp.VN > maxVN {
				maxVN, bestVal = g.resp.VN, g.resp.Val
			}
			if g.resp.Gen > maxGen {
				maxGen, bestCfg = g.resp.Gen, g.resp.Cfg
			}
		}
		for _, g := range got {
			req := RepairReq{Item: it.Name}
			if g.resp.VN < maxVN {
				req.VN, req.Val = maxVN, bestVal
			}
			if g.resp.Gen < maxGen {
				req.Gen, req.Cfg = maxGen, bestCfg.Clone()
			}
			if req.VN == 0 && req.Gen == 0 {
				continue
			}
			s.Stats.AntiEntropyRepairs.Inc()
			repairs++
			s.client.Notify(g.dm, req)
		}
		if maxGen > 0 {
			s.observeConfig(it.Name, maxGen, bestCfg)
		}
	}
	return repairs, nil
}

// sweepAndCount runs one background sweep, counting rather than dropping
// its error — the loop has no caller to return it to, and a silent drop
// hides a sweeper that is failing every pass.
func (s *Store) sweepAndCount(ctx context.Context) {
	if _, err := s.SweepOnce(ctx); err != nil {
		s.Stats.AntiEntropySweepErrors.Inc()
	}
}

// antiEntropyLoop runs SweepOnce every WithAntiEntropy interval until the
// store closes.
func (s *Store) antiEntropyLoop() {
	defer s.bg.Done()
	tick := time.NewTicker(s.opts.antiEntropy)
	defer tick.Stop()
	for {
		select {
		case <-s.stopBg:
			return
		case <-tick.C:
			s.sweepAndCount(context.Background())
		}
	}
}
