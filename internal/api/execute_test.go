package api

import (
	"context"
	"sync"
	"testing"

	"hams/internal/report"
	"hams/internal/runner"
)

// countingRunner is a CellRunner that remembers every cell key it was
// handed and runs the batch on a serial Engine.
type countingRunner struct {
	mu   sync.Mutex
	keys map[string]int
}

func (c *countingRunner) RunCells(ctx context.Context, cells []runner.Cell, onResult func(runner.Result)) ([]runner.Result, error) {
	c.mu.Lock()
	for _, cell := range cells {
		c.keys[cell.Key]++
	}
	c.mu.Unlock()
	return runner.Engine{Workers: 1}.RunCells(ctx, cells, onResult)
}

// TestExecuteTargetRunsOnJobRunner pins that a figure target job runs
// every one of its cells on the job's runner — hamsd's shared pool —
// streams each once through Progress, and honours a cancelled context.
func TestExecuteTargetRunsOnJobRunner(t *testing.T) {
	spec := JobSpec{Kind: KindTarget, Targets: []string{"fig17"}, Scale: 1e-7}
	if err := Validate(spec); err != nil {
		t.Fatal(err)
	}
	cr := &countingRunner{keys: make(map[string]int)}
	var mu sync.Mutex
	progressed := make(map[string]int)
	cells, err := Execute(spec, ExecOptions{Runner: cr, Progress: func(c report.Cell) {
		mu.Lock()
		progressed[c.Key]++
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("fig17 job returned no cells")
	}
	for _, c := range cells {
		if cr.keys[c.Key] != 1 {
			t.Errorf("cell %s ran %d times on the job's runner, want 1", c.Key, cr.keys[c.Key])
		}
		if progressed[c.Key] != 1 {
			t.Errorf("cell %s fired Progress %d times, want 1", c.Key, progressed[c.Key])
		}
	}
	if len(progressed) != len(cells) {
		t.Errorf("Progress saw %d cells, job returned %d", len(progressed), len(cells))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Execute(spec, ExecOptions{Ctx: ctx}); err == nil {
		t.Fatal("cancelled fig17 job returned no error")
	}
}
