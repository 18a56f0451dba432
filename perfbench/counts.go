package main

// simCounts folds the cells' Stats counters, summed over one campaign, into
// per-layer simulated counts. They are exact: every repetition of a
// campaign at one seed reproduces them. Each ratio names its base.
func simCounts(c *campaign) []metric {
	n := map[string]float64{}
	for _, r := range c.cells {
		for _, nc := range r.stats.Counters() {
			n[nc.Name] += float64(nc.Value)
		}
	}
	kinst := n["Committed"] / 1000
	return []metric{
		{"sim.cycles", n["Cycles"], "count"},
		{"sim.committed", n["Committed"], "count"},
		{"sim.ipc", ratio(n["Committed"], n["Cycles"]), "ratio"},                        // useful commits / cycles
		{"cache.dl1_miss_per_kinst", ratio(n["DL1Miss"], kinst), "1/kinst"},             // per 1000 useful commits
		{"cache.l3_miss_per_kinst", ratio(n["L3Miss"], kinst), "1/kinst"},               // per 1000 useful commits
		{"prefetch.hit_ratio", ratio(n["PrefHits"], n["PrefIssued"]), "ratio"},          // stream-buffer hits / prefetches issued
		{"bpred.accuracy", 1 - ratio(n["BranchWrong"], n["Branches"]), "ratio"},         // correct / branches
		{"vpred.lookups", n["VPLookups"], "count"},                                      // predictor consulted
		{"vpred.accuracy", ratio(n["VPCorrect"], n["VPCorrect"]+n["VPWrong"]), "ratio"}, // correct / followed predictions
		{"pipeline.spawns", n["Spawns"], "count"},
		{"pipeline.confirm_ratio", ratio(n["Confirms"], n["Spawns"]), "ratio"}, // confirms / spawns
		{"pipeline.squash_ratio", ratio(n["Squashed"], n["Fetched"]), "ratio"}, // squashed / fetched
		{"storebuf.forward_hits", n["StoreBufHits"], "count"},                  // loads forwarded from a store buffer
	}
}
