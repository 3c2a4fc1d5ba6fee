package main

// The serve and client subcommands run the store as a real multi-process
// deployment: N `qcstore serve` processes each host one DM replica behind
// the TCP transport, and `qcstore client` attaches to them over the same
// peer map to run transactions. Every process derives the same item layout
// from the sorted peer names, so no configuration file is needed — the
// peer map IS the cluster description.
//
// With -shards (e.g. -shards g0=dm0:dm1:dm2,g1=dm3:dm4:dm5) the layout is
// sharded instead: -keys data items placed on the replica groups by the
// deterministic consistent-hash ring, every process deriving the same ring
// from the same -shards/-keys/-ringseed flags. A client finds an item that
// migrated by the generation chase of its reads; `client -inspect
// placement` prints each item's group with per-replica version numbers.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/quorum"
	"repro/internal/shard"
	"repro/internal/transport/tcp"
)

// theItem is the single replicated item the multi-process demo serves.
const theItem = "balance/alice"

// parsePeers parses "dm0=127.0.0.1:7100,dm1=127.0.0.1:7101,..." into a
// name→address map.
func parsePeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, errors.New("missing -peers (e.g. -peers dm0=127.0.0.1:7100,dm1=127.0.0.1:7101)")
	}
	peers := map[string]string{}
	for _, part := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want name=host:port)", part)
		}
		if _, dup := peers[name]; dup {
			return nil, fmt.Errorf("duplicate peer %q", name)
		}
		peers[name] = addr
	}
	return peers, nil
}

// itemsFor derives the shared item layout from the peer map: one item,
// replicated at every peer, majority quorums. Every process computes the
// same layout from the same -peers flag.
func itemsFor(peers map[string]string) []cluster.ItemSpec {
	dms := make([]string, 0, len(peers))
	for name := range peers {
		dms = append(dms, name)
	}
	sort.Strings(dms)
	return []cluster.ItemSpec{
		{Name: theItem, Initial: 100, DMs: dms, Config: quorum.Majority(dms)},
	}
}

// shardLayout derives the sharded deployment's ring and item layout from
// the -shards/-keys/-ringseed flags. Every process — servers and clients —
// computes the same placement from the same flags, so the flags are the
// whole cluster description, just like -peers in the unsharded layout.
func shardLayout(spec string, nkeys int, seed int64, peers map[string]string) (*shard.Ring, []cluster.ItemSpec, error) {
	groups, err := shard.ParseSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	ring, err := shard.New(seed, 64, groups)
	if err != nil {
		return nil, nil, err
	}
	for _, dm := range ring.DMs() {
		if _, ok := peers[dm]; !ok {
			return nil, nil, fmt.Errorf("shard DM %q missing from -peers", dm)
		}
	}
	if nkeys <= 0 {
		return nil, nil, fmt.Errorf("bad -keys %d (want > 0)", nkeys)
	}
	items, err := cluster.ShardItems(ring, shard.Keys("k", nkeys), 0)
	if err != nil {
		return nil, nil, err
	}
	return ring, items, nil
}

// serveMain hosts one DM replica until SIGINT/SIGTERM, then closes it in
// order (endpoint first, write-ahead log last) and exits 0. SIGKILL is the
// amnesia crash the WAL exists for: restart with the same flags and the
// replica recovers from the log.
func serveMain(args []string) int {
	fs := flag.NewFlagSet("qcstore serve", flag.ExitOnError)
	var (
		id       = fs.String("id", "", "this replica's DM name (must appear in -peers)")
		peersArg = fs.String("peers", "", "comma-separated name=host:port for every replica")
		dir      = fs.String("dir", "", "keep a write-ahead log under this directory (dir/<id>); empty serves volatile")
		shards   = fs.String("shards", "", "shard the keyspace onto replica groups, e.g. g0=dm0:dm1:dm2,g1=dm3:dm4:dm5")
		nkeys    = fs.Int("keys", 16, "sharded keyspace size (k0..kN-1); only with -shards")
		ringseed = fs.Int64("ringseed", 1, "consistent-hash ring seed; must match on every process")
	)
	fs.Parse(args)
	peers, err := parsePeers(*peersArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qcstore serve:", err)
		return 2
	}
	if *id == "" {
		fmt.Fprintln(os.Stderr, "qcstore serve: missing -id")
		return 2
	}
	if _, ok := peers[*id]; !ok {
		fmt.Fprintf(os.Stderr, "qcstore serve: -id %s not in -peers\n", *id)
		return 2
	}
	tr := tcp.New(tcp.WithPeers(peers))
	defer tr.Close()
	opts := []cluster.Option{}
	if *dir != "" {
		opts = append(opts, cluster.WithDurability(*dir))
	}
	items := itemsFor(peers)
	if *shards != "" {
		ring, sharded, err := shardLayout(*shards, *nkeys, *ringseed, peers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qcstore serve:", err)
			return 2
		}
		items = sharded
		opts = append(opts, cluster.WithRing(ring))
	}
	host, err := cluster.ServeDM(tr, *id, items, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qcstore serve:", err)
		return 1
	}
	rec := host.Recovery()
	switch {
	case host.Rebuilt != nil:
		// The log was corrupt beyond a torn tail and the automatic peer
		// rebuild restored the replica's state from the live peers.
		fmt.Printf("qcstore: %s serving at %s (rebuilt items=%d resolved=%d acceptors=%d from %d peers)\n",
			*id, tr.Addr(*id), host.Rebuilt.Items, host.Rebuilt.Resolved, host.Rebuilt.Acceptors, host.Rebuilt.Peers)
	case host.Quarantined() != nil:
		// Corrupt log AND the rebuild failed (peers unreachable): the
		// replica serves only the typed refusal until restarted against
		// reachable peers.
		fmt.Printf("qcstore: %s serving at %s (QUARANTINED: %v)\n", *id, tr.Addr(*id), host.Quarantined())
	default:
		fmt.Printf("qcstore: %s serving at %s (snapshot=%v replayed=%d)\n",
			*id, tr.Addr(*id), rec.FromSnapshot, rec.Replayed)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	<-sigs
	host.Close()
	st := tr.Stats()
	fmt.Printf("qcstore: %s shut down cleanly (sent %d frames in %d writes, %d bytes)\n", *id, st.Frames, st.Writes, st.Bytes)
	return 0
}

// clientMain attaches to a running multi-process cluster and performs one
// operation: -get, -set N, -inspect <dm|health|placement|txn:ID>, or
// (default) the nested-transaction demo.
func clientMain(args []string) int {
	fs := flag.NewFlagSet("qcstore client", flag.ExitOnError)
	var (
		peersArg = fs.String("peers", "", "comma-separated name=host:port for every replica")
		get      = fs.Bool("get", false, "read the item and print it")
		set      = fs.String("set", "", "write this integer value in a transaction")
		inspect  = fs.String("inspect", "", "print one replica's committed state (bypasses quorums); \"health\" prints every replica's status; \"txn:<id>\" prints how a transaction stands at every replica; with -shards, \"placement\" prints the whole ring layout")
		item     = fs.String("item", "", "data item for -get/-set/-inspect (default: the demo item, or k0 with -shards)")
		timeout  = fs.Duration("timeout", 5*time.Second, "overall operation deadline")
		shards   = fs.String("shards", "", "shard the keyspace onto replica groups, e.g. g0=dm0:dm1:dm2,g1=dm3:dm4:dm5")
		nkeys    = fs.Int("keys", 16, "sharded keyspace size (k0..kN-1); only with -shards")
		ringseed = fs.Int64("ringseed", 1, "consistent-hash ring seed; must match on every process")
	)
	fs.Parse(args)
	peers, err := parsePeers(*peersArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qcstore client:", err)
		return 2
	}
	items := itemsFor(peers)
	opts := []cluster.Option{
		cluster.WithCallTimeout(time.Second),
		// The PID tag keeps this process's transaction IDs disjoint from
		// every other client process of the same cluster (see WithClientTag).
		cluster.WithClientTag(fmt.Sprintf("p%d-", os.Getpid())),
	}
	var ring *shard.Ring
	if *shards != "" {
		r, sharded, err := shardLayout(*shards, *nkeys, *ringseed, peers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qcstore client:", err)
			return 2
		}
		ring, items = r, sharded
		opts = append(opts, cluster.WithRing(ring))
	}
	if *item == "" {
		*item = theItem
		if ring != nil {
			*item = "k0"
		}
	}
	tr := tcp.New(tcp.WithPeers(peers))
	defer tr.Close()
	store, err := cluster.OpenClient(tr, items, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qcstore client:", err)
		return 1
	}
	defer func() {
		store.Close() // delivers every release notify still queued
		// A release lost with its connection leaves a read lock until its
		// lease lapses and a transaction it blocks resolves it: say so.
		if n := tr.Stats().DroppedNotifies; n > 0 {
			fmt.Fprintf(os.Stderr, "qcstore client: %d notifies lost with their connections\n", n)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := clientOp(ctx, store, ring, *nkeys, *item, *get, *set, *inspect); err != nil {
		fmt.Fprintln(os.Stderr, "qcstore client:", err)
		return 1
	}
	return 0
}

func clientOp(ctx context.Context, store *cluster.Store, ring *shard.Ring, nkeys int, item string, get bool, set, inspect string) error {
	switch {
	case inspect == "placement" && ring != nil:
		return printPlacement(ctx, store, ring, shard.Keys("k", nkeys))
	case inspect == "health":
		// One line per replica: healthy replicas answer the ping, a
		// quarantined one serves its typed refusal (with the corruption
		// that put it there), a dead one times out.
		for _, h := range store.ProbeHealth(ctx) {
			if h.Detail != "" {
				fmt.Printf("%-8s %-12s %s\n", h.DM, h.Status, h.Detail)
			} else {
				fmt.Printf("%-8s %s\n", h.DM, h.Status)
			}
		}
		return nil
	case strings.HasPrefix(inspect, "txn:"):
		printTxn(ctx, store, cluster.TxnID(strings.TrimPrefix(inspect, "txn:")))
		return nil
	case inspect != "":
		resp, err := store.Inspect(ctx, inspect, item)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %s = %v (vn %d, gen %d, %d locks, %d intents)\n",
			inspect, item, resp.Val, resp.VN, resp.Gen, resp.Locks, resp.Intents)
		return nil
	case get:
		return store.Run(ctx, func(tx *cluster.Txn) error {
			v, vn, err := tx.ReadVersioned(ctx, item)
			if err != nil {
				return err
			}
			fmt.Printf("%s = %v (vn %d)\n", item, v, vn)
			return nil
		})
	case set != "":
		var n int
		if _, err := fmt.Sscanf(set, "%d", &n); err != nil {
			return fmt.Errorf("bad -set value %q: %w", set, err)
		}
		if err := store.Run(ctx, func(tx *cluster.Txn) error {
			return tx.Write(ctx, item, n)
		}); err != nil {
			return err
		}
		fmt.Printf("%s := %d committed\n", item, n)
		return nil
	default:
		return clientDemo(ctx, store)
	}
}

// printTxn prints, one line per replica, how a top-level transaction stands
// there — the question to ask when an item is blocked, answered by the
// message a blocked client itself resolves the blocker with: the outcome the
// replica holds, whether it still holds locks or intentions of the
// transaction, whether its lease is live (the coordinator renewed recently),
// and its Paxos acceptor state. A replica that does not answer prints its
// error instead of failing the table.
func printTxn(ctx context.Context, store *cluster.Store, txn cluster.TxnID) {
	for _, dm := range store.DMs() {
		p, err := store.ResolutionProbe(ctx, dm, txn)
		if err != nil {
			fmt.Printf("%-8s ? %v\n", dm, err)
			continue
		}
		outcome := "unknown"
		if p.Known && p.Committed {
			outcome = "committed"
		} else if p.Known {
			outcome = "aborted"
		}
		acceptor := "none"
		if p.Promised != -2 {
			acceptor = fmt.Sprintf("promised=%d accepted=%d commit=%v cohort=%s", p.Promised, p.AccBal, p.AccCommit, strings.Join(p.Cohort, ":"))
		}
		fmt.Printf("%-8s %-9s holds=%v lease-live=%v acceptor: %s\n", dm, outcome, p.Holds, p.Active, acceptor)
	}
}

// printPlacement renders the sharded deployment's layout: the groups, then
// each item's owning group with the committed version number at every
// replica of that group (an unreachable replica prints "?" rather than
// failing the whole table).
func printPlacement(ctx context.Context, store *cluster.Store, ring *shard.Ring, keys []string) error {
	fmt.Printf("%d groups (%s)\n", len(ring.GroupNames()), shard.FormatSpec(groupsOf(ring)))
	for _, k := range keys {
		g, ok := ring.GroupOf(k)
		if !ok {
			return fmt.Errorf("item %q maps to no group", k)
		}
		parts := make([]string, 0, len(g.DMs))
		for _, dm := range g.DMs {
			resp, err := store.Inspect(ctx, dm, k)
			if err != nil {
				parts = append(parts, dm+"=?")
				continue
			}
			parts = append(parts, fmt.Sprintf("%s=vn%d", dm, resp.VN))
		}
		fmt.Printf("%-8s -> %-8s %s\n", k, g.Name, strings.Join(parts, " "))
	}
	return nil
}

// groupsOf lists a ring's groups for FormatSpec.
func groupsOf(ring *shard.Ring) []shard.Group {
	names := ring.GroupNames()
	groups := make([]shard.Group, 0, len(names))
	for _, name := range names {
		if g, ok := ring.Group(name); ok {
			groups = append(groups, g)
		}
	}
	return groups
}

// clientDemo is the nested-transaction walkthrough of the sim demo, run
// against real processes: a subtransaction aborts, the parent tolerates it
// and commits.
func clientDemo(ctx context.Context, store *cluster.Store) error {
	errRisky := errors.New("risky step failed")
	var id cluster.TxnID
	err := store.Run(ctx, func(tx *cluster.Txn) error {
		id = tx.ID()
		if err := tx.Write(ctx, theItem, 150); err != nil {
			return err
		}
		if err := tx.Sub(ctx, func(sub *cluster.Txn) error {
			if err := sub.Write(ctx, theItem, -1); err != nil {
				return err
			}
			return errRisky
		}); !errors.Is(err, errRisky) {
			return err
		}
		v, err := tx.Read(ctx, theItem)
		if err != nil {
			return err
		}
		fmt.Printf("inside txn after tolerated sub-abort: %s = %v\n", theItem, v)
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("transaction %s committed\n", id)
	return store.Run(ctx, func(tx *cluster.Txn) error {
		v, vn, err := tx.ReadVersioned(ctx, theItem)
		if err != nil {
			return err
		}
		fmt.Printf("committed: %s = %v (vn %d)\n", theItem, v, vn)
		return nil
	})
}
