package chaos

// Process-level chaos: where chaos.Run crashes simulated nodes inside one
// process, RunProc drives a real multi-process cluster — N `qcstore serve`
// OS processes over TCP — through the harshest fault the WAL claims to
// survive: kill -9. The driver commits through quorums, SIGKILLs a
// replica, proves the survivors keep committing, restarts the victim and
// proves it recovered its pre-crash state from the log alone, then shuts
// the cluster down orderly and checks every exit code. It is the
// end-to-end counterpart of the in-process amnesia campaigns: same
// protocol, real sockets, real processes, a real kernel delivering the
// kill.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/wal"
)

// syncBuffer is a bytes.Buffer safe to read while exec's pipe-copier
// goroutine writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// ProcConfig configures one process-level crash-recovery run.
type ProcConfig struct {
	// Bin is the qcstore binary. Empty builds it with `go build` into
	// Dir, which requires running inside the module tree.
	Bin string
	// Replicas is the cluster size (default 3).
	Replicas int
	// Dir is the scratch directory for WALs and logs. Empty uses a fresh
	// temporary directory, removed on success and kept on failure for
	// inspection.
	Dir string
	// Verbose echoes every step and child-process line.
	Verbose bool
}

// ProcReport summarizes a successful run.
type ProcReport struct {
	Replicas int
	// Killed is the DM that took the SIGKILL.
	Killed string
	// Replayed is how many WAL records the restarted victim re-applied.
	Replayed int
	// RecoveredVN is the victim's committed version right after recovery —
	// its exact pre-crash state, missing only what committed while it was
	// dead.
	RecoveredVN int
	// RebuiltItems is what the second act restored: the victim SIGKILLed
	// again, one bit of a sealed WAL record flipped on its real disk, and
	// the restarted process detecting the corruption and rebuilding itself
	// from its live peers instead of serving the damage. PostRebuildValue
	// is the victim's own state right after — the value committed while it
	// was dead, proving the rebuild pulled current peer state, not the
	// corrupt history.
	RebuiltItems     int
	PostRebuildValue int
	// FinalValue and FinalVN are the quorum read's answer at the end.
	FinalValue int
	FinalVN    int
}

// replica tracks one spawned serve process.
type procReplica struct {
	id   string
	cmd  *exec.Cmd
	out  *syncBuffer
	done chan error
}

// RunProc runs the kill -9 recovery scenario and returns a report, or an
// error naming the first step that broke.
func RunProc(ctx context.Context, cfg ProcConfig) (ProcReport, error) {
	n := cfg.Replicas
	if n <= 0 {
		n = 3
	}
	dir := cfg.Dir
	ephemeral := false
	if dir == "" {
		d, err := os.MkdirTemp("", "qcproc")
		if err != nil {
			return ProcReport{}, err
		}
		dir, ephemeral = d, true
	}
	bin := cfg.Bin
	if bin == "" {
		bin = filepath.Join(dir, "qcstore")
		build := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/qcstore")
		if out, err := build.CombinedOutput(); err != nil {
			return ProcReport{}, fmt.Errorf("proc: build qcstore: %v\n%s", err, out)
		}
	}
	logf := func(format string, args ...any) {
		if cfg.Verbose {
			fmt.Printf("proc: "+format+"\n", args...)
		}
	}

	// Pick N free loopback ports by binding :0 and releasing. The window
	// between release and the serve process re-binding is racy in theory;
	// in practice nothing else grabs an just-released ephemeral port, and
	// a collision fails loudly at serve startup.
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return ProcReport{}, err
		}
		ports[i] = l.Addr().(*net.TCPAddr).Port
		l.Close()
	}
	var peerList []string
	for i, p := range ports {
		peerList = append(peerList, fmt.Sprintf("dm%d=127.0.0.1:%d", i, p))
	}
	peers := strings.Join(peerList, ",")
	walDir := filepath.Join(dir, "wal")
	logf("peers: %s", peers)

	spawn := func(id string) (*procReplica, error) {
		r := &procReplica{
			id:   id,
			out:  &syncBuffer{},
			done: make(chan error, 1),
			cmd:  exec.Command(bin, "serve", "-id", id, "-peers", peers, "-dir", walDir),
		}
		r.cmd.Stdout = r.out
		r.cmd.Stderr = r.out
		if err := r.cmd.Start(); err != nil {
			return nil, fmt.Errorf("proc: start %s: %w", id, err)
		}
		go func() { r.done <- r.cmd.Wait() }()
		logf("spawned %s (pid %d)", id, r.cmd.Process.Pid)
		return r, nil
	}
	replicas := make(map[string]*procReplica, n)
	failed := func(err error) (ProcReport, error) {
		// Leave the scratch directory behind with every child's output.
		for id, r := range replicas {
			r.cmd.Process.Kill()
			os.WriteFile(filepath.Join(dir, id+".log"), r.out.Bytes(), 0o644)
		}
		return ProcReport{}, fmt.Errorf("%w (logs kept in %s)", err, dir)
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("dm%d", i)
		r, err := spawn(id)
		if err != nil {
			return failed(err)
		}
		replicas[id] = r
	}

	client := func(args ...string) (string, error) {
		full := append([]string{"client", "-peers", peers, "-timeout", "10s"}, args...)
		out, err := exec.CommandContext(ctx, bin, full...).CombinedOutput()
		s := strings.TrimSpace(string(out))
		if cfg.Verbose && s != "" {
			fmt.Println(indent(s))
		}
		if err != nil {
			return s, fmt.Errorf("proc: qcstore %s: %v: %s", strings.Join(args, " "), err, s)
		}
		return s, nil
	}

	// Readiness: retry a quorum read until the cluster answers.
	var err error
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err = client("-get"); err == nil {
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return failed(fmt.Errorf("proc: cluster never became ready: %w", err))
		}
		time.Sleep(100 * time.Millisecond)
	}
	logf("cluster ready")

	// A nested transaction with a tolerated subtransaction abort — the
	// paper's motivating capability — against real processes.
	demo, err := client()
	if err != nil {
		return failed(err)
	}
	// What became of it is a question every replica answers — the one a
	// blocked client asks before it resolves anybody: committed, and held
	// nowhere. Its phases stay on the replicas it already holds, so a replica
	// none of them reached answers unknown; that answer is accepted only
	// from a replica whose log names neither the transaction nor any of its
	// subtransactions, because every replica the client reached hears the
	// outcome and records it.
	var demoTxn string
	for _, line := range strings.Split(demo, "\n") {
		fmt.Sscanf(line, "transaction %s committed", &demoTxn)
	}
	resolvedEverywhere := func() error {
		out, err := client("-inspect", "txn:"+demoTxn)
		if err != nil {
			return err
		}
		committed, resolved := 0, 0
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) != 6 || strings.Join(f[2:], " ") != "holds=false lease-live=false acceptor: none" {
				continue
			}
			switch f[1] {
			case "committed":
				committed++
				resolved++
			case "unknown":
				named, err := logNames(filepath.Join(walDir, f[0]), demoTxn)
				if err != nil {
					return err
				}
				if !named {
					resolved++
				}
			}
		}
		if demoTxn == "" || committed < n/2+1 || resolved != n {
			return fmt.Errorf("proc: demo transaction %q reads committed at %d of %d replicas, and committed or unknown to a log that never named it, held nowhere, at %d:\n%s",
				demoTxn, committed, n, resolved, out)
		}
		return nil
	}
	if err := resolvedEverywhere(); err != nil {
		return failed(err)
	}
	if _, err := client("-set", "175"); err != nil {
		return failed(err)
	}
	logf("committed 175 through quorums")

	// SIGKILL one replica: amnesia, no goodbye. The kernel delivers this
	// one — no flushing, no deferred closes.
	victim := fmt.Sprintf("dm%d", n-1)
	v := replicas[victim]
	if err := v.cmd.Process.Kill(); err != nil {
		return failed(fmt.Errorf("proc: kill %s: %w", victim, err))
	}
	<-v.done
	logf("killed %s with SIGKILL", victim)

	// The survivors still form majorities: commits must keep flowing.
	if _, err := client("-set", "180"); err != nil {
		return failed(fmt.Errorf("proc: commit with %s dead: %w", victim, err))
	}
	logf("committed 180 with %s dead", victim)

	// Restart the victim with the same flags: it must recover from its
	// write-ahead log alone.
	v2, err := spawn(victim)
	if err != nil {
		return failed(err)
	}
	replicas[victim] = v2
	report := ProcReport{Replicas: n, Killed: victim}
	rdeadline := time.Now().Add(15 * time.Second)
	for {
		var snap bool
		if _, serr := fmt.Sscanf(firstLine(v2.out.String()),
			"qcstore: "+victim+" serving at %s (snapshot=%t replayed=%d)",
			new(string), &snap, &report.Replayed); serr == nil {
			break
		}
		if time.Now().After(rdeadline) || ctx.Err() != nil {
			return failed(fmt.Errorf("proc: %s never came back: %q", victim, v2.out.String()))
		}
		time.Sleep(100 * time.Millisecond)
	}
	if report.Replayed == 0 {
		return failed(fmt.Errorf("proc: restarted %s replayed 0 records — recovery did not read the WAL", victim))
	}
	logf("%s recovered, %d records replayed", victim, report.Replayed)

	// The victim's own replica state must be its exact pre-crash state:
	// the 175 it acknowledged before the kill (vn 2), not the 180 that
	// committed while it was dead and not initial state.
	insp, err := client("-inspect", victim)
	if err != nil {
		return failed(err)
	}
	var val int
	if _, err := fmt.Sscanf(insp, victim+": balance/alice = %d (vn %d,", &val, &report.RecoveredVN); err != nil {
		return failed(fmt.Errorf("proc: parse inspect %q: %w", insp, err))
	}
	if report.RecoveredVN < 2 {
		return failed(fmt.Errorf("proc: %s recovered vn %d, want >= 2 (lost acknowledged state)", victim, report.RecoveredVN))
	}
	// So must its resolution records be: the demo transaction's outcome is
	// in the log the victim just replayed.
	if err := resolvedEverywhere(); err != nil {
		return failed(err)
	}

	// And the cluster-level read must see the post-kill commit.
	got, err := client("-get")
	if err != nil {
		return failed(err)
	}
	if _, err := fmt.Sscanf(got, "balance/alice = %d (vn %d)", &report.FinalValue, &report.FinalVN); err != nil {
		return failed(fmt.Errorf("proc: parse get %q: %w", got, err))
	}
	if report.FinalValue != 180 {
		return failed(fmt.Errorf("proc: final read %d, want 180", report.FinalValue))
	}

	// Second act: the disk itself fails. Commit once more so the victim's
	// log holds fresh records, SIGKILL it again, flip one bit in a sealed
	// WAL record on its real disk, and restart it with the same flags. The
	// process must detect the corruption, refuse to serve the damage, and
	// rebuild itself from its live peers — coming back with the cluster's
	// current state, not its corrupt history.
	if _, err := client("-set", "185"); err != nil {
		return failed(err)
	}
	v3 := replicas[victim]
	if err := v3.cmd.Process.Kill(); err != nil {
		return failed(fmt.Errorf("proc: second kill of %s: %w", victim, err))
	}
	<-v3.done
	if err := corruptFirstFrame(filepath.Join(walDir, victim)); err != nil {
		return failed(fmt.Errorf("proc: corrupt %s's log: %w", victim, err))
	}
	logf("killed %s again and flipped a bit in its WAL", victim)

	// Survivors still commit; the health inspection sees the dead peer.
	if _, err := client("-set", "190"); err != nil {
		return failed(fmt.Errorf("proc: commit with %s's disk corrupt: %w", victim, err))
	}
	health, err := client("-inspect", "health")
	if err != nil {
		return failed(err)
	}
	if strings.Count(health, "healthy") != n-1 || !strings.Contains(health, "unreachable") {
		return failed(fmt.Errorf("proc: health with %s dead reads wrong:\n%s", victim, health))
	}

	v4, err := spawn(victim)
	if err != nil {
		return failed(err)
	}
	replicas[victim] = v4
	bdeadline := time.Now().Add(15 * time.Second)
	for {
		var resolved, acceptors, peersN int
		if _, serr := fmt.Sscanf(firstLine(v4.out.String()),
			"qcstore: "+victim+" serving at %s (rebuilt items=%d resolved=%d acceptors=%d from %d peers)",
			new(string), &report.RebuiltItems, &resolved, &acceptors, &peersN); serr == nil {
			break
		}
		if time.Now().After(bdeadline) || ctx.Err() != nil {
			return failed(fmt.Errorf("proc: %s never reported a rebuild: %q", victim, v4.out.String()))
		}
		time.Sleep(100 * time.Millisecond)
	}
	if report.RebuiltItems == 0 {
		return failed(fmt.Errorf("proc: restarted %s rebuilt 0 items", victim))
	}
	logf("%s detected the corruption and rebuilt %d item(s) from its peers", victim, report.RebuiltItems)

	// The rebuilt replica's own state is the cluster's CURRENT state — the
	// 190 that committed while it was dead — and the whole cluster reads
	// healthy again.
	insp2, err := client("-inspect", victim)
	if err != nil {
		return failed(err)
	}
	var vn2 int
	if _, err := fmt.Sscanf(insp2, victim+": balance/alice = %d (vn %d,", &report.PostRebuildValue, &vn2); err != nil {
		return failed(fmt.Errorf("proc: parse inspect %q: %w", insp2, err))
	}
	if report.PostRebuildValue != 190 {
		return failed(fmt.Errorf("proc: rebuilt %s serves %d, want 190", victim, report.PostRebuildValue))
	}
	health, err = client("-inspect", "health")
	if err != nil {
		return failed(err)
	}
	if strings.Count(health, "healthy") != n {
		return failed(fmt.Errorf("proc: health after rebuild reads wrong:\n%s", health))
	}
	got, err = client("-get")
	if err != nil {
		return failed(err)
	}
	if _, err := fmt.Sscanf(got, "balance/alice = %d (vn %d)", &report.FinalValue, &report.FinalVN); err != nil {
		return failed(fmt.Errorf("proc: parse get %q: %w", got, err))
	}
	if report.FinalValue != 190 {
		return failed(fmt.Errorf("proc: final read %d, want 190", report.FinalValue))
	}

	// Orderly shutdown: SIGINT everyone, every process must exit 0.
	for _, r := range replicas {
		r.cmd.Process.Signal(os.Interrupt)
	}
	for id, r := range replicas {
		select {
		case werr := <-r.done:
			if werr != nil {
				return failed(fmt.Errorf("proc: %s exited dirty: %v: %s", id, werr, r.out.String()))
			}
		case <-time.After(10 * time.Second):
			return failed(fmt.Errorf("proc: %s did not exit on SIGINT", id))
		}
	}
	logf("all replicas exited 0")
	if ephemeral {
		os.RemoveAll(dir)
	}
	return report, nil
}

// corruptFirstFrame flips one bit in the first record frame of the oldest
// segment in dir — damage recovery must classify as corruption (valid
// frames follow it), never as a torn tail. The bit lands in the frame's
// last byte: payload or CRC, never the length prefix, so the frame chain
// stays walkable and the checksum convicts the record.
func corruptFirstFrame(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var segs []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		return fmt.Errorf("no segments in %s", dir)
	}
	sort.Strings(segs)
	path := filepath.Join(dir, segs[0])
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	_, n, err := wal.DecodeFrame(b)
	if err != nil {
		return fmt.Errorf("decode first frame of %s: %w", segs[0], err)
	}
	if n >= len(b) && len(segs) == 1 {
		return fmt.Errorf("segment %s holds a single frame; corrupting it would read as a torn tail", segs[0])
	}
	b[n-1] ^= 0x01
	return os.WriteFile(path, b, 0o644)
}

// logNames reports whether any file of the replica log in dir — segment or
// snapshot — names txn or one of its subtransactions. Both are package
// wire's encoding, which writes a string as its uvarint length (one byte,
// for an id this short) and then its bytes, so txn is named where
// its bytes follow a length that ends exactly at txn, or that runs on past
// it with the '/' of a subtransaction id; a longer id that merely starts
// with txn's bytes does not count.
func logNames(dir, txn string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	id := []byte(txn)
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return false, err
		}
		for off := 0; ; {
			i := bytes.Index(b[off:], id)
			if i < 0 {
				break
			}
			i += off
			end := i + len(id)
			if i > 0 {
				if l := int(b[i-1]); l == len(id) || l > len(id) && end < len(b) && b[end] == '/' {
					return true, nil
				}
			}
			off = i + 1
		}
	}
	return false, nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func indent(s string) string {
	return "  | " + strings.ReplaceAll(s, "\n", "\n  | ")
}
