package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// RunLocal is the in-process worker of a server without remote workers: it
// joins m under name and takes shards straight from the queue — no HTTP, no
// JSON round trip of the cells — running each with run (nil means
// RunAssignment, which already spreads a shard's cells over GOMAXPROCS, so
// one local worker keeps the machine busy). Idle, it blocks until a run
// opens or a shard is requeued instead of polling; a heartbeat tick keeps
// its registration alive meanwhile. A shard runs under a context that ends
// with its run, so a cancelled campaign frees the worker at once, and a
// shard that fails for any reason but that context fails its run at once
// instead of waiting out a lease. RunLocal leaves the fleet and returns
// when ctx ends.
func (m *Manager) RunLocal(ctx context.Context, name string, run Runner) {
	if run == nil {
		run = RunAssignment
	}
	id := m.Join(name, nil).ID
	defer func() { m.Leave(id) }()
	hb := time.NewTicker(m.HeartbeatInterval())
	defer hb.Stop()
	for {
		m.mu.Lock()
		a, r, err := m.leaseLocked(id)
		wake := m.wake
		m.mu.Unlock()
		if errors.Is(err, ErrUnknownWorker) {
			id = m.Join(name, nil).ID
			continue
		}
		if a == nil {
			select {
			case <-ctx.Done():
				return
			case <-wake:
			case <-hb.C: // the next lease call renews the registration
			}
			continue
		}
		m.runLocalShard(ctx, id, a, r, hb.C, run)
		if ctx.Err() != nil {
			return
		}
	}
}

// runLocalShard computes one leased shard and reports it, heartbeating
// while it runs.
func (m *Manager) runLocalShard(ctx context.Context, id string, a *Assignment, r *Run, hb <-chan time.Time, run Runner) {
	shardCtx, cancel := context.WithCancel(ctx)
	beating := make(chan struct{})
	go func() {
		defer close(beating)
		for {
			select {
			case <-shardCtx.Done():
				return
			case <-r.endCh:
				cancel()
				return
			case <-hb:
				m.Heartbeat(id) //nolint:errcheck // a lost registration shows on the next lease
			}
		}
	}()
	header, cells, err := run(shardCtx, a)
	stopped := shardCtx.Err() != nil
	cancel()
	<-beating
	switch {
	case err == nil:
		if _, err := m.Complete(id, CompleteRequest{
			Run: a.Run, Lease: a.Lease, Shard: a.Shard,
			Header: header, Cells: cells, Trace: a.Trace,
		}); err != nil {
			m.logf("fleet: local completion of shard %d/%d of %s rejected: %v", a.Shard, a.Shards, a.Run, err)
		}
	case stopped:
		// The run ended or the worker is stopping: nobody wants the shard.
	default:
		r.fail(fmt.Errorf("fleet: shard %d/%d failed on local worker %s: %w", a.Shard, a.Shards, id, err))
	}
}
