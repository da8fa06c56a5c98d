package fault_test

import (
	"testing"

	"sessiondir/internal/fault"
	"sessiondir/internal/stats"
	"sessiondir/internal/transport"
)

// TestNewFaultValidatesTheBurstChain: a caller hands its whole profile to
// Validate, so the burst chain's four probabilities are checked too (the
// validator FaultTransport used to carry looked at three of the seven).
func TestNewFaultValidatesTheBurstChain(t *testing.T) {
	for _, ge := range []fault.GilbertElliott{
		{PGB: 1.5}, {PBG: -0.1}, {LossGood: 2}, {PGB: 0.1, PBG: 0.1, LossBad: 1.5},
	} {
		ge := ge
		_, err := transport.NewFault(transport.NewBus().Endpoint(), transport.FaultConfig{
			RNG:     stats.NewRNG(1),
			Profile: fault.Profile{Burst: &ge},
		})
		if err == nil {
			t.Errorf("NewFault accepted burst chain %+v", ge)
		}
	}
}
