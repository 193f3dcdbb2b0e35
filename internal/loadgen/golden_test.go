package loadgen

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"minos/internal/cluster"
	"minos/internal/demo"
)

// goldenRuns is the shape of testdata/golden.json: one small run of every
// modelled experiment, full result structs.
type goldenRuns struct {
	Run        Result
	Fleet      Result
	Gate       GateResult
	Queue      map[string]QueueStats
	Contention map[string]ContentionStats
}

// TestGoldenAcrossCommits pins every modelled experiment to results computed
// by an *earlier commit*. The determinism tests compare two runs of one
// binary, so a refactor that shifts every run the same way passes them; this
// one does not move with the code.
//
// testdata/golden.json was written at 13f0d91 (PR 12), before the harnesses
// were re-expressed on the kernel, by running exactly the configurations
// below through that commit's five harness entry points (testdata/README.md
// names them and gives the command).
// Every field is that commit's value except Queue[*].P95 and
// Contention[*].HitP95: those two were regenerated when the five percentile
// rules became one (kernel.go percentile), which moves a p95 by at most one
// rank of the sorted sample. Gate.Hub.ViewEncodes/ViewReuses are counters
// added later (PR 14); their values date from that PR.
// Gate as a whole was regenerated when id lists were packed: E-GATE bills
// link time from the bytes on the modelled link, and query answers shrank
// (testdata/README.md).
func TestGoldenAcrossCommits(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want goldenRuns
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	var got goldenRuns
	if got.Run, err = Run(corpus(t), Config{Sessions: 80, StepsEach: 60, Seed: 7, MaxInFlight: 16, HotSessions: 4}); err != nil {
		t.Fatal(err)
	}
	f, err := BuildFleet(1<<14, 30, 6, 2, cluster.DefaultVnodes, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fleet, err = RunFleet(f, Config{Sessions: 60, StepsEach: 100, Seed: 99, MaxInFlight: 32, FailShard: 0, FailShardAt: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	gsrv, err := BuildCorpus(1<<14, 30, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got.Gate, err = RunGate(gsrv, GateConfig{Sessions: 16, StepsEach: 30, Seed: 7, StepSlots: 2}); err != nil {
		t.Fatal(err)
	}
	got.Queue = map[string]QueueStats{}
	for _, d := range []Discipline{FCFS, SSTF, SCAN} {
		c, err := demo.Build(1<<15, 16)
		if err != nil {
			t.Fatal(err)
		}
		got.Queue[d.String()] = RunQueue(c.Server, QueueConfig{
			Clients: 8, RequestsEach: 12, ThinkTime: 100 * time.Millisecond, PieceLen: 8192, Sched: d, Seed: 42,
		})
	}
	got.Contention = map[string]ContentionStats{}
	for _, m := range []LockModel{GlobalLock, DeviceLock} {
		got.Contention[m.String()] = RunContention(contentionServer(t), ContentionConfig{
			Clients: 8, RequestsEach: 50, PieceLen: 4096, HotExtents: 6, ColdReaders: 2, Seed: 7, Model: m,
		})
	}

	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("%s diverged from the golden:\n got %+v\nwant %+v",
				gv.Type().Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
}
