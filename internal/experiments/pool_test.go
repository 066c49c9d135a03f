package experiments

import (
	"strings"
	"sync"
	"testing"
)

// Pool.Run is the serving seam: concurrent jobs on one long-lived pool
// must produce tables byte-identical to private-pool runs (content
// addressing is meaningless otherwise), and a panicking experiment
// must surface as its own job's error, never as a crash of the shared
// workers the other jobs depend on.
func TestPoolConcurrentRunsByteIdentical(t *testing.T) {
	ids := []string{"fig12c", "fig9", "tab1"}
	refs := make(map[string]string, len(ids))
	for _, id := range ids {
		refs[id] = runQuick(t, id).String()
	}

	p := NewPool(4)
	defer p.Close()
	const rounds = 3
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for _, id := range ids {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				e, err := ByID(id)
				if err != nil {
					t.Error(err)
					return
				}
				tb, err := p.Run(e, Options{Quick: true})
				if err != nil {
					t.Errorf("%s on shared pool: %v", id, err)
					return
				}
				if tb.String() != refs[id] {
					t.Errorf("%s table on shared pool differs from private-pool run", id)
				}
			}(id)
		}
	}
	wg.Wait()
}

// A job that panics is isolated to its own Run call; the pool keeps
// serving subsequent jobs.
func TestPoolIsolatesPanickingJob(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	boom := Experiment{ID: "boom", Paper: "none", Title: "panics",
		Run: func(Options) (*Table, error) { panic("injected") }}
	if _, err := p.Run(boom, Options{}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panicking job returned %v, want an error naming the experiment", err)
	}
	e, err := ByID("fig9")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := p.Run(e, Options{Quick: true})
	if err != nil || tb == nil {
		t.Fatalf("pool unusable after a panicking job: %v", err)
	}
}
