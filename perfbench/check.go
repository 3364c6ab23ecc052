package main

import (
	"fmt"
	"reflect"

	"rmcast/internal/core"
	"rmcast/internal/graph"
	"rmcast/internal/protocol"
	"rmcast/internal/strategysvc"
)

// The checks below decide whether a measured result may be reported. Each
// returns one line per problem found and nothing for a correct result; a
// cell with any problem counts as failed.

// checkRun holds for every simulated run: it finished, every live client
// recovered every loss, and the invariant oracle found nothing.
func checkRun(res *protocol.Result) []string {
	var out []string
	if !res.Complete {
		out = append(out, fmt.Sprintf("%s: run hit the event cap", res.Protocol))
	}
	if res.Stats.Unrecovered != 0 {
		out = append(out, fmt.Sprintf("%s: %d losses unrecovered", res.Protocol, res.Stats.Unrecovered))
	}
	for _, v := range res.Violations {
		out = append(out, fmt.Sprintf("%s: oracle: %s", res.Protocol, v))
	}
	return out
}

// checkPaperOrdering holds the paper's result on its own backbone: RP
// recovers faster than SRM and RMA, and spends fewer repair hops per
// recovery than RMA.
func checkPaperOrdering(results []*protocol.Result) []string {
	by := map[string]*protocol.Result{}
	for _, r := range results {
		by[r.Protocol] = r
	}
	rp, srm, rma := by["RP"], by["SRM"], by["RMA"]
	if rp == nil || srm == nil || rma == nil {
		return []string{"paper ordering: the cell must run SRM, RMA and RP"}
	}
	var out []string
	for _, other := range []*protocol.Result{srm, rma} {
		if rp.AvgLatency() >= other.AvgLatency() {
			out = append(out, fmt.Sprintf("paper ordering: RP recovery %.3f ms is not below %s's %.3f ms",
				rp.AvgLatency(), other.Protocol, other.AvgLatency()))
		}
	}
	if rp.BandwidthPerRecovery() >= rma.BandwidthPerRecovery() {
		out = append(out, fmt.Sprintf("paper ordering: RP repair hops per recovery %.3f are not below RMA's %.3f",
			rp.BandwidthPerRecovery(), rma.BandwidthPerRecovery()))
	}
	return out
}

// checkSharded holds where the workload exists to exercise the sharded
// engine: the run really sharded.
func checkSharded(results []*protocol.Result) []string {
	var out []string
	for _, r := range results {
		if !r.Sharded {
			out = append(out, fmt.Sprintf("%s: run did not shard (%s)", r.Protocol, r.SerialReason))
		}
	}
	return out
}

// checkSameDigests holds when two runs of the same inputs agree on every
// observable result: a repeated cell of one seed, or a sharded run and its
// serial twin.
func checkSameDigests(what string, want, got []string) []string {
	if len(want) != len(got) {
		return []string{fmt.Sprintf("%s: %d results against %d", what, len(got), len(want))}
	}
	var out []string
	for i := range want {
		if want[i] != got[i] {
			out = append(out, fmt.Sprintf("%s: result %d digest %s, want %s", what, i, got[i], want[i]))
		}
	}
	return out
}

// checkEpochs holds when the epochs a reader observed never decrease.
func checkEpochs(epochs []uint64) []string {
	for i := 1; i < len(epochs); i++ {
		if epochs[i] < epochs[i-1] {
			return []string{fmt.Sprintf("service: snapshot epoch went back from %d to %d",
				epochs[i-1], epochs[i])}
		}
	}
	return nil
}

// checkFinalSnapshot holds when the service's snapshot after every churn
// op equals a roster built from scratch over the final membership, and its
// epoch counts every op.
func checkFinalSnapshot(snap *strategysvc.Snapshot, p *core.Planner, members []graph.NodeID, ops uint64) []string {
	var out []string
	if snap.Epoch != ops {
		out = append(out, fmt.Sprintf("service: final epoch %d, want %d ops applied", snap.Epoch, ops))
	}
	want := core.NewRosterActive(p, members)
	if snap.ActiveCount() != want.ActiveCount() {
		out = append(out, fmt.Sprintf("service: %d active members, want %d", snap.ActiveCount(), want.ActiveCount()))
	}
	for _, c := range snap.Clients() {
		if snap.Active(c) != want.Active(c) {
			out = append(out, fmt.Sprintf("service: client %d active=%v, want %v", c, snap.Active(c), want.Active(c)))
			break
		}
	}
	if !reflect.DeepEqual(snap.Strategies(), want.StrategiesDense(nil)) {
		out = append(out, "service: final strategies differ from a roster built over the final membership")
	}
	return out
}
