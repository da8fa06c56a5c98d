package sim

import (
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

// Test-only helpers: no non-test code needs these, so they live beside
// the tests that do.

// NewWorld returns an empty world over g with its own private scope cache.
func NewWorld(g *topology.Graph) *World {
	return NewWorldWithCache(g, nil)
}

// RunReqResp simulates one request–response exchange; RunTrials runs
// many over one net.
func RunReqResp(cfg ReqRespConfig, rng *stats.RNG) ReqRespResult {
	if cfg.Graph == nil || cfg.Delay == nil {
		panic("sim: ReqRespConfig.Graph and Delay are required")
	}
	return runReqResp(&cfg, newReqRespNet(&cfg), rng)
}
