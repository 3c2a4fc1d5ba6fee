package main

import (
	"context"
	"errors"
	"syscall"
	"time"

	"repro/internal/cluster"
)

// errDeliberate is what a Sub returns when the plan says it aborts on
// purpose; the enclosing transaction tolerates it and carries on.
var errDeliberate = errors.New("bench: deliberate sub-abort")

// executor is one client: it walks its pre-generated transaction list,
// runs each against the store, and remembers which writes were
// acknowledged. Not safe for concurrent use; each client owns one.
type executor struct {
	store *cluster.Store
	plan  *plan
	list  []txnSpec
	pos   int
	t     *tracer // nil outside the traced pass

	acks       []ack // by key index
	pend       []pendingWrite
	wroteBytes int // value bytes of every acknowledged write so far
}

type pendingWrite struct {
	key    uint16
	vn     int
	valOff uint32
}

func newExecutor(store *cluster.Store, p *plan, client int, t *tracer) *executor {
	return &executor{
		store: store, plan: p, list: p.perClient[client], t: t,
		acks: make([]ack, len(p.keys)),
	}
}

// next returns the client's next planned transaction, wrapping at the end
// of the list.
func (e *executor) next() txnSpec {
	spec := e.list[e.pos%len(e.list)]
	e.pos++
	return spec
}

// run executes one planned transaction as one Store.Run call.
func (e *executor) run(ctx context.Context, spec txnSpec) error {
	span := e.t.begin("txn", "")
	err := e.store.Run(ctx, func(tx *cluster.Txn) error {
		// Run may call this more than once (conflict restarts); only the
		// attempt that commits may leave acknowledged writes behind.
		e.pend = e.pend[:0]
		e.t.bindTxn(span, tx.ID())
		for _, op := range spec.ops[:spec.n] {
			if err := e.nest(ctx, tx, op, int(spec.depth)); err != nil {
				return err
			}
		}
		return nil
	})
	e.t.end(span, err != nil)
	if err != nil {
		return err
	}
	for _, w := range e.pend {
		if a := &e.acks[w.key]; w.vn > a.vn {
			*a = ack{vn: w.vn, valOff: w.valOff}
		}
	}
	e.wroteBytes += len(e.pend) * e.plan.valueBytes
	return nil
}

// nest performs op wrapped depth Subs deep under tx. A deliberate abort
// fails the innermost Sub; the level that started that Sub tolerates it.
func (e *executor) nest(ctx context.Context, tx *cluster.Txn, op opSpec, depth int) error {
	if depth == 0 {
		return e.do(ctx, tx, op)
	}
	mark := len(e.pend)
	span := e.t.begin("sub", "")
	err := tx.Sub(ctx, func(sub *cluster.Txn) error {
		if depth > 1 {
			return e.nest(ctx, sub, op, depth-1)
		}
		if err := e.do(ctx, sub, op); err != nil {
			return err
		}
		if op.abort {
			return errDeliberate
		}
		return nil
	})
	e.t.end(span, err != nil)
	if depth == 1 && errors.Is(err, errDeliberate) {
		e.pend = e.pend[:mark]
		return nil
	}
	return err
}

// do performs one logical read or write.
func (e *executor) do(ctx context.Context, tx *cluster.Txn, op opSpec) error {
	key := e.plan.keys[op.key]
	if !op.write {
		span := e.t.begin("op", "read")
		_, err := tx.Read(ctx, key)
		e.t.end(span, err != nil)
		return err
	}
	span := e.t.begin("op", "write")
	vn, err := tx.WriteVersioned(ctx, key, e.plan.value(op))
	e.t.end(span, err != nil)
	if err == nil {
		e.pend = append(e.pend, pendingWrite{key: op.key, vn: vn, valOff: op.valOff})
	}
	return err
}

// mergeAcks folds every client's acknowledged writes into one table.
func mergeAcks(execs []*executor) []ack {
	out := make([]ack, len(execs[0].acks))
	for _, e := range execs {
		for k, a := range e.acks {
			if a.vn > out[k].vn {
				out[k] = a
			}
		}
	}
	return out
}

// processCPU is the user plus system CPU time this process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
