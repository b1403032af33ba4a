// Partition and fault tests: sever or delay a worker's connection
// mid-campaign and assert the coordinator reassigns the lost shard, the
// campaign completes, and the output still matches the fault-free run —
// worker churn must be invisible in every determinism-guaranteed
// observable. RunLocalOpts pins options to coordinator worker indices, so
// every fault lands on a chosen worker at a chosen frame: worker 0 owns
// VM 0 and runs the seed pass, the others do not.

package cluster

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/repro/snowplow/internal/faultinject"
)

// faultyFleet returns options for a workers-strong fleet whose listed
// victims dial through a fault link; everyone else gets a clean
// connection.
func faultyFleet(workers int, link faultinject.LinkOptions, victims ...int) []WorkerOptions {
	opts := make([]WorkerOptions, workers)
	for _, v := range victims {
		opts[v].Dial = func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return faultinject.NewLink(conn, link), nil
		}
	}
	return opts
}

// TestClusterSurvivesSeveredWorker cuts a non-owner's link after a fixed
// number of outbound frames — mid-epoch, after the campaign is underway —
// and asserts the coordinator reassigns its VMs and finishes with the exact
// fault-free digests.
func TestClusterSurvivesSeveredWorker(t *testing.T) {
	cfg := baseConfig(45, 120_000, 4)
	spec := SpecFromConfig(withJournalFlag(cfg), nil)
	want, err := RunLocal(Config{Spec: spec}, 2, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Frame budget anatomy: hello(1) + ack(1) + one delta per epoch. A
	// budget of 10 kills the victim around epoch 8 of a ~32-epoch campaign.
	got, err := RunLocalOpts(Config{Spec: spec}, faultyFleet(2, faultinject.LinkOptions{SeverAfterWrites: 10}, 1))
	if err != nil {
		t.Fatalf("campaign did not survive severed worker: %v", err)
	}
	requireSameResult(t, "severed-worker", want, got)
}

// TestClusterSurvivesEarlySever enumerates every early fault point: the
// victim's link is severed on each of its outbound frames from the seed
// delta through the fourth epoch delta, once with the VM-0 owner as the
// victim (whose third frame is the seed pass) and once with a non-owner
// (whose third frame is its first epoch delta). Every run must reproduce
// the fault-free digests.
func TestClusterSurvivesEarlySever(t *testing.T) {
	cfg := baseConfig(46, 120_000, 4)
	spec := SpecFromConfig(withJournalFlag(cfg), nil)
	want, err := RunLocal(Config{Spec: spec}, 2, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Outbound frames: hello, ack, [seed delta on the owner], then one
	// delta per epoch.
	for _, tc := range []struct {
		name      string
		victim    int
		lastFrame int // the fourth epoch delta
	}{
		{"owner", 0, 7},
		{"non-owner", 1, 6},
	} {
		for sever := 3; sever <= tc.lastFrame; sever++ {
			label := fmt.Sprintf("%s-sever%d", tc.name, sever)
			var log []string
			cfg := Config{Spec: spec, Logf: func(format string, args ...any) {
				log = append(log, fmt.Sprintf(format, args...))
			}}
			got, err := RunLocalOpts(cfg, faultyFleet(2, faultinject.LinkOptions{SeverAfterWrites: sever}, tc.victim))
			if err != nil {
				t.Fatalf("%s: campaign did not survive: %v", label, err)
			}
			requireSameResult(t, label, want, got)
			// The fault must have happened where it was aimed: the owner's
			// third frame is the seed pass, every other frame an epoch delta.
			wantLog := "reassigning VMs"
			if tc.victim == 0 && sever == 3 {
				wantLog = "seed pass: restoring VM 0"
			}
			if !slices.ContainsFunc(log, func(l string) bool { return strings.Contains(l, wantLog) }) {
				t.Fatalf("%s: no %q in the coordinator log %q", label, wantLog, log)
			}
		}
	}
}

// TestClusterSurvivesAllButOneSevered severs every worker but the last in a
// 3-worker cluster; the survivor must absorb both lost shards.
func TestClusterSurvivesAllButOneSevered(t *testing.T) {
	cfg := baseConfig(47, 120_000, 4)
	spec := SpecFromConfig(withJournalFlag(cfg), nil)
	want, err := RunLocal(Config{Spec: spec}, 3, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunLocalOpts(Config{Spec: spec}, faultyFleet(3, faultinject.LinkOptions{SeverAfterWrites: 7}, 0, 1))
	if err != nil {
		t.Fatalf("campaign did not survive double sever: %v", err)
	}
	requireSameResult(t, "double-sever", want, got)
}

// TestClusterToleratesSlowLink delays every frame on one worker's link; a
// slow worker must change nothing but wall-clock time.
func TestClusterToleratesSlowLink(t *testing.T) {
	cfg := baseConfig(48, 80_000, 2)
	spec := SpecFromConfig(withJournalFlag(cfg), nil)
	want, err := RunLocal(Config{Spec: spec}, 2, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunLocalOpts(Config{Spec: spec}, faultyFleet(2, faultinject.LinkOptions{WriteDelay: 2 * time.Millisecond}, 0))
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "slow-link", want, got)
}

// TestClusterAllWorkersLost pins the failure mode when nobody survives:
// the coordinator reports a campaign error instead of hanging. The seed
// pass is covered too: with every link cut on its seed-pass frame, the
// restore onto a survivor finds none left.
func TestClusterAllWorkersLost(t *testing.T) {
	cfg := baseConfig(49, 120_000, 2)
	spec := SpecFromConfig(withJournalFlag(cfg), nil)
	for _, sever := range []int{3, 5} {
		_, err := RunLocalOpts(Config{Spec: spec, IOTimeout: 5 * time.Second},
			faultyFleet(2, faultinject.LinkOptions{SeverAfterWrites: sever}, 0, 1))
		if err == nil {
			t.Fatalf("sever=%d: campaign with every worker severed reported success", sever)
		}
	}
}
