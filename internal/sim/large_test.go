package sim

import (
	"testing"

	"sessiondir/internal/clash"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

// TestReqRespLargeGroup exercises the paper-scale path: a 12800-node Doar
// graph under both delay distributions, including the implosion regime the
// bounded-suppression optimisations exist for. Guards the `-full` runs.
func TestReqRespLargeGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("large-group request-response")
	}
	g, err := topology.GenerateGrid(12800, stats.NewRNG(31))
	if err != nil {
		t.Fatal(err)
	}
	members := allNodes(g)
	rng := stats.NewRNG(32)

	// Exponential, comfortable window: a handful of responses.
	r := RunReqResp(ReqRespConfig{
		Graph:     g,
		Mode:      SharedTree,
		Requester: 7,
		Members:   members,
		Delay:     clash.NewExponentialDelay(0, 3200, 200),
	}, rng.Split())
	if r.Responses < 1 || r.Responses > 30 {
		t.Fatalf("exponential responses = %d", r.Responses)
	}

	// Uniform, tiny window: implosion regime — thousands respond, and the
	// run must complete quickly despite O(n²)-shaped naive cost.
	r = RunReqResp(ReqRespConfig{
		Graph:     g,
		Mode:      SharedTree,
		Requester: 7,
		Members:   members,
		Delay:     clash.NewUniformDelay(0, 50),
	}, rng.Split())
	if r.Responses < 200 {
		t.Fatalf("implosion regime produced only %d responses", r.Responses)
	}
}
