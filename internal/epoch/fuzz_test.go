package epoch

import (
	"math"
	"testing"
)

// FuzzEpochReclaim drives a Domain through an arbitrary interleaving of
// pin / unpin / retire / collect operations decoded from the fuzz input
// and checks the two safety properties of the reclamation protocol:
//
//  1. No retired object is freed while a reader pinned at or before its
//     retirement epoch is still active (checked against a snapshot of
//     the pin table taken just before each Collect).
//  2. Nothing leaks: after all pins are released and the domain
//     quiesces, every retired object has been freed exactly once.
func FuzzEpochReclaim(f *testing.F) {
	f.Add([]byte{0, 2, 3, 1, 3})                      // pin, retire, collect, unpin, collect
	f.Add([]byte{2, 2, 3, 3})                         // retire-heavy, no pins
	f.Add([]byte{0, 0, 0, 2, 1, 3, 2, 3, 1, 1, 3})    // staggered unpins
	f.Add([]byte{0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3}) // pin churn
	f.Add([]byte{2, 0, 3, 1, 3})                      // pin after retire must not block
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDomain()

		type token struct {
			retireEpoch uint64
			freedAt     int // op index of the freeing Collect, -1 if live
		}
		var tokens []*token
		var pins []Pin // currently-held pins, in claim order

		minActive := func() uint64 {
			min := uint64(math.MaxUint64)
			for i := range d.table {
				if v := d.table[i].v.Load(); v != 0 && v < min {
					min = v
				}
			}
			return min
		}

		for opIdx, b := range data {
			switch b % 4 {
			case 0: // pin
				if p, ok := d.TryPin(); ok {
					pins = append(pins, p)
				}
			case 1: // unpin oldest held pin
				if len(pins) > 0 {
					d.Unpin(pins[0])
					pins = pins[1:]
				}
			case 2: // retire a tracked token
				tk := &token{retireEpoch: d.epoch.Load(), freedAt: -1}
				idx := opIdx
				d.Retire(func() {
					if tk.freedAt != -1 {
						t.Fatalf("token retired at epoch %d freed twice", tk.retireEpoch)
					}
					tk.freedAt = idx
				})
				tokens = append(tokens, tk)
			case 3: // collect, then audit every free it performed
				// Collect advances the epoch before scanning pins, so the
				// pre-call snapshot is the conservative bound: any pin
				// active across the call was at most this value.
				bound := minActive()
				before := make(map[*token]bool, len(tokens))
				for _, tk := range tokens {
					before[tk] = tk.freedAt != -1
				}
				d.Collect()
				for _, tk := range tokens {
					if tk.freedAt != -1 && !before[tk] && tk.retireEpoch >= bound {
						t.Fatalf("token retired at epoch %d freed while a pin at epoch %d was active", tk.retireEpoch, bound)
					}
				}
			}
		}

		// Quiesce: release every pin and collect until drained.
		for _, p := range pins {
			d.Unpin(p)
		}
		for i := 0; d.Pending() > 0; i++ {
			if i > len(tokens)+1 {
				t.Fatalf("domain did not drain: %d still pending after %d collects", d.Pending(), i)
			}
			d.Collect()
		}
		for _, tk := range tokens {
			if tk.freedAt == -1 {
				t.Fatalf("token retired at epoch %d leaked (never freed)", tk.retireEpoch)
			}
		}
		st := d.Stats()
		if st.Retired != int64(len(tokens)) || st.Freed != int64(len(tokens)) || st.Pending != 0 {
			t.Fatalf("stats %+v inconsistent with %d tracked tokens", st, len(tokens))
		}
	})
}
