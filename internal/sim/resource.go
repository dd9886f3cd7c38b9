package sim

import "sync/atomic"

// Resource models a unit of device hardware that can serve one operation at
// a time: a NAND die, the firmware CPU, or a channel bus. An operation
// requested at time t starts at max(t, busyUntil), occupies the resource for
// its service time, and completes at start+service. Requests issued "in the
// past" (because the host queued several operations at the same submit time)
// therefore serialize on the resource while independent resources overlap —
// this is what makes async queue depth exploit die-level parallelism.
//
// Acquire is lock-free (a CAS loop over busyUntil) so concurrent readers —
// which share a device on its lock-free read tier — can schedule flash
// and host-link operations without a global mutex. Concurrent Acquires
// linearize in CAS order; single-threaded behaviour is unchanged.
type Resource struct {
	name      string
	busyUntil atomic.Int64
	busyTotal atomic.Int64 // total time spent serving operations
	ops       atomic.Int64
}

// NewResource returns an idle resource with the given diagnostic name.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Name reports the diagnostic name given at construction.
func (r *Resource) Name() string { return r.name }

// Acquire schedules an operation requested at time t with the given service
// duration and returns the operation's start and completion times.
func (r *Resource) Acquire(t Time, service Duration) (start, done Time) {
	for {
		bu := r.busyUntil.Load()
		start = t
		if Time(bu) > start {
			start = Time(bu)
		}
		done = start.Add(service)
		if r.busyUntil.CompareAndSwap(bu, int64(done)) {
			break
		}
	}
	r.busyTotal.Add(int64(service))
	r.ops.Add(1)
	return start, done
}

// BusyUntil reports the time at which the resource next becomes idle.
func (r *Resource) BusyUntil() Time { return Time(r.busyUntil.Load()) }

// Utilization reports the fraction of [0, now] this resource spent busy.
func (r *Resource) Utilization(now Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(r.busyTotal.Load()) / float64(now)
}

// Ops reports how many operations the resource has served.
func (r *Resource) Ops() int64 { return r.ops.Load() }

// Reset returns the resource to idle at time zero, clearing statistics.
// Callers must be externally serialized with Acquire.
func (r *Resource) Reset() {
	r.busyUntil.Store(0)
	r.busyTotal.Store(0)
	r.ops.Store(0)
}
