package bench

import (
	"fmt"
	"io"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig7Row is one resize event with its rate of change.
type Fig7Row struct {
	KeysBefore  int64
	NewCapacity int64
	Took        sim.Duration
	// Rate is took_i / (2 · took_{i−1}): the paper's "rate of change of
	// the resizing time"; ≈ 1 means resize cost scales linearly with the
	// doubled capacity.
	Rate float64
}

// Fig7 reproduces Fig. 7: grow a minimally-initialized RHIK device until
// it has re-configured itself many times, recording each migration's
// simulated duration and the ratio between successive resizes.
func Fig7(w io.Writer, s Scale) ([]Fig7Row, error) {
	targetKeys := s.div64(6_000_000, 120_000)
	capacity := targetKeys*64 + (256 << 20)
	dev, err := device.Open(device.Config{
		Capacity:    capacity,
		Index:       device.IndexRHIK,
		CacheBudget: 64 << 20, // generous: isolate migration cost from cache thrash
		HaltResize:  true,     // the paper measures the halted migration
	})
	if err != nil {
		return nil, err
	}

	var d asyncDriver
	d.dev = dev
	value := []byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 0x11, 0x22} // small values: index-bound
	for i := int64(0); i < targetKeys; i++ {
		if err := d.store(workload.KeyBytes(uint64(i)), value); err != nil {
			return nil, fmt.Errorf("fig7 insert %d: %w", i, err)
		}
	}

	evs := dev.ResizeEvents()
	rows := make([]Fig7Row, len(evs))
	fmt.Fprintf(w, "Fig. 7 — resizing time as the index doubles (grown to %d keys)\n", targetKeys)
	fmt.Fprintf(w, "%-22s %-16s %-14s %-10s\n", "keys before resize", "new capacity", "resize time", "rate")
	for i, e := range evs {
		rows[i] = Fig7Row{KeysBefore: e.KeysBefore, NewCapacity: e.NewCapacity, Took: e.Took}
		if i > 0 && evs[i-1].Took > 0 {
			rows[i].Rate = float64(e.Took) / (2 * float64(evs[i-1].Took))
		}
		fmt.Fprintf(w, "%-22s %-16s %-14s %-10.3f\n",
			human(e.KeysBefore), human(e.NewCapacity), e.Took.String(), rows[i].Rate)
	}
	hr(w)
	fmt.Fprintln(w, "Expectation (paper): the rate stays at or below ~1 — resize time doubles as capacity doubles,")
	fmt.Fprintln(w, "so re-configuration cost per key stays constant even for large indexes.")
	return rows, nil
}
