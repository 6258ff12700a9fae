// Package workload drives register emulations with configurable workloads on
// a simulated cluster, records operation histories for consistency checking,
// and reports the storage costs the experiments and benchmarks analyse.
//
// A workload is a set of writer clients (each performing a sequence of writes
// of distinct values) and reader clients (each performing a sequence of
// reads), scheduled by a pluggable policy over the fault-prone shared memory
// of internal/dsys. Because every writer has at most one outstanding write,
// the paper's write-concurrency level c equals the number of writers.
package workload

import (
	"fmt"

	"spacebounds/internal/dsys"
	"spacebounds/internal/history"
	"spacebounds/internal/register"
	"spacebounds/internal/value"
)

// Spec describes a workload.
type Spec struct {
	// Writers is the number of writer clients; it equals the paper's write
	// concurrency level c because each writer has one outstanding write at a
	// time.
	Writers int
	// WritesPerWriter is the number of writes each writer performs.
	WritesPerWriter int
	// Readers is the number of reader clients.
	Readers int
	// ReadsPerReader is the number of reads each reader performs.
	ReadsPerReader int
	// ReadersAfterWrites makes readers start only after all writers have
	// finished; FW-terminating registers guarantee read completion only in
	// runs with finitely many writes, so consistency experiments that want
	// every read to complete use this.
	ReadersAfterWrites bool
	// Policy schedules the run; nil means dsys.FairPolicy.
	Policy dsys.Policy
	// Live switches to live (uncontrolled) scheduling.
	Live bool
	// MaxSteps bounds controlled-mode scheduling decisions (0 = unbounded).
	MaxSteps int
	// CrashObjects lists base objects crashed before the run starts.
	CrashObjects []int
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Writers < 0 || s.Readers < 0 || s.WritesPerWriter < 0 || s.ReadsPerReader < 0 {
		return fmt.Errorf("workload: negative counts in spec %+v", s)
	}
	return nil
}

// Result is the outcome of a workload run.
type Result struct {
	// History is the recorded operation history (for consistency checking).
	History *history.History
	// MaxTotalBits is the maximum storage cost observed anywhere (base
	// objects + clients + channel), per Definition 2.
	MaxTotalBits int
	// MaxBaseObjectBits is the maximum storage observed across base objects
	// only — the quantity the paper's algorithm bounds (Theorem 2) refer to.
	MaxBaseObjectBits int
	// QuiescentBaseObjectBits is the base-object storage after the run
	// quiesced (all operations done and all leftover RMWs applied).
	QuiescentBaseObjectBits int
	// Steps is the number of scheduling decisions taken (controlled mode).
	Steps int
	// WriteErrors / ReadErrors count failed operations (e.g. reads that
	// exhausted their retry budget).
	WriteErrors int
	ReadErrors  int
	// CompletedWrites / CompletedReads count successful operations.
	CompletedWrites int
	CompletedReads  int
	// IdleReason reports how the run ended.
	IdleReason dsys.IdleReason
}

// WriterValue returns the deterministic distinct value written by the given
// writer for its seq-th write; checkers rely on value distinctness.
func WriterValue(cfg register.Config, writer, seq int) value.Value {
	return value.Sequenced(writer, seq, cfg.DataLen)
}

// Run executes the workload against the register and returns the result.
func Run(reg register.Register, spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg := reg.Config()
	v0 := value.Zero(cfg.DataLen)
	states, err := reg.InitialStates(v0)
	if err != nil {
		return nil, fmt.Errorf("workload: initial states: %w", err)
	}
	opts := []dsys.Option{dsys.WithDataBits(cfg.DataBits())}
	if spec.Policy != nil {
		opts = append(opts, dsys.WithPolicy(spec.Policy))
	}
	if spec.Live {
		opts = append(opts, dsys.WithLiveMode())
	}
	if spec.MaxSteps > 0 {
		opts = append(opts, dsys.WithMaxSteps(spec.MaxSteps))
	}
	cluster := dsys.NewCluster(states, opts...)
	defer cluster.Close()
	for _, obj := range spec.CrashObjects {
		if err := cluster.CrashObject(obj); err != nil {
			return nil, err
		}
	}

	rec := history.NewRecorder()
	res := &Result{}

	writerTasks := spawnWriters(cluster, reg, rec, spec)
	var readerTasks []*dsys.TaskHandle
	if !spec.ReadersAfterWrites {
		readerTasks = spawnReaders(cluster, reg, rec, spec)
	}
	cluster.Start()

	joinOrStuck(cluster, writerTasks)
	if spec.ReadersAfterWrites {
		readerTasks = spawnReaders(cluster, reg, rec, spec)
	}
	joinOrStuck(cluster, readerTasks)

	reason := cluster.WaitIdle()
	final := cluster.SampleStorage()

	res.History = rec.History(v0)
	res.IdleReason = reason
	res.Steps = cluster.Steps()
	res.QuiescentBaseObjectBits = final.BaseObjectBits
	if acct := cluster.Accountant(); acct != nil {
		res.MaxTotalBits = acct.MaxTotalBits()
		res.MaxBaseObjectBits = acct.MaxBaseObjectBits()
	}
	res.CompletedWrites = len(completedOfKind(res.History, history.Write))
	res.CompletedReads = len(res.History.CompletedReads())
	res.WriteErrors = spec.Writers*spec.WritesPerWriter - res.CompletedWrites
	res.ReadErrors = spec.Readers*spec.ReadsPerReader - res.CompletedReads
	return res, nil
}

// completedOfKind returns the completed operations of the given kind.
func completedOfKind(h *history.History, kind history.OpKind) []*history.Op {
	var out []*history.Op
	for _, op := range h.Ops {
		if op.Kind == kind && op.Completed() {
			out = append(out, op)
		}
	}
	return out
}

// joinOrStuck waits for all tasks to finish; if the run becomes stuck first
// (a policy stall, an exhausted step budget, or an unreachable quorum), it
// closes the cluster so the blocked tasks abort with ErrHalted.
func joinOrStuck(cluster *dsys.Cluster, tasks []*dsys.TaskHandle) {
	if len(tasks) == 0 {
		return
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		waitAll(tasks)
	}()
	stuck := make(chan struct{}, 1)
	go func() {
		if cluster.WaitIdle() == dsys.IdleStuck {
			stuck <- struct{}{}
		}
	}()
	select {
	case <-done:
	case <-stuck:
		cluster.Close()
		<-done
	}
}

// spawnWriters starts the writer tasks. Writer client IDs start at 1.
func spawnWriters(cluster *dsys.Cluster, reg register.Register, rec *history.Recorder, spec Spec) []*dsys.TaskHandle {
	cfg := reg.Config()
	tasks := make([]*dsys.TaskHandle, 0, spec.Writers)
	for w := 1; w <= spec.Writers; w++ {
		w := w
		tasks = append(tasks, cluster.Spawn(w, func(h *dsys.ClientHandle) error {
			var firstErr error
			for seq := 1; seq <= spec.WritesPerWriter; seq++ {
				v := WriterValue(cfg, w, seq)
				op := rec.BeginWrite(w, v)
				if err := reg.Write(h, v); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				rec.EndWrite(op)
			}
			return firstErr
		}))
	}
	return tasks
}

// spawnReaders starts the reader tasks. Reader client IDs start at 1001 so
// they never collide with writers.
func spawnReaders(cluster *dsys.Cluster, reg register.Register, rec *history.Recorder, spec Spec) []*dsys.TaskHandle {
	tasks := make([]*dsys.TaskHandle, 0, spec.Readers)
	for r := 1; r <= spec.Readers; r++ {
		client := 1000 + r
		tasks = append(tasks, cluster.Spawn(client, func(h *dsys.ClientHandle) error {
			var firstErr error
			for seq := 1; seq <= spec.ReadsPerReader; seq++ {
				op := rec.BeginRead(client)
				v, err := reg.Read(h)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				rec.EndRead(op, v)
			}
			return firstErr
		}))
	}
	return tasks
}

// waitAll joins tasks and counts errors.
func waitAll(tasks []*dsys.TaskHandle) int {
	errs := 0
	for _, t := range tasks {
		if err := t.Wait(); err != nil {
			errs++
		}
	}
	return errs
}
