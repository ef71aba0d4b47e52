// Command ppcd-pub runs a publisher daemon: it loads a policy file, serves
// registrations over TCP, publishes documents dropped on stdin commands, and
// with -state-dir persists its state across restarts. Every publish is also pushed over
// long-lived subscriber streams as an epoch delta — reconnecting clients
// catch up from their last epoch (ppcd-sub stream is the consumer side).
//
// With -state-dir the publisher is durable: on start it recovers table T,
// sticky group assignments, the epoch counter and its incarnation generation
// from an encrypted snapshot plus write-ahead log, every
// registration/revocation/publish is WAL-appended (fsync) before it takes
// effect, and fresh snapshots are written on -snapshot-every, after
// -snapshot-wal-records of WAL growth, on SIGTERM/SIGINT and on quit.
// Snapshots are segmented and incremental: post-churn ones rewrite only the
// dirty segments. A warm restart therefore performs zero ACV re-solves
// on its first publish, and reconnecting ppcd-sub stream clients catch up
// with a delta instead of a snapshot. The state is sealed under the operator
// key in -state-key (hex, auto-generated on first run; guard that file).
//
// Policy file format (one policy per line):
//
//	<id> | <conjunction> | <document> | <subdoc>[,<subdoc>...]
//	acp4 | role = nur && level >= 59 | EHR.xml | ContactInfo,Medication
//
// Lines starting with '#' are comments. Interactive commands on stdin:
//
//	publish <path> <mark>[,<mark>...]   segment an XML file and broadcast it
//	revoke <nym>                        revoke a subscription and rekey
//	revoke-cred <nym> <condition>       revoke one credential
//	snapshot                            write a state snapshot now (-state-dir)
//	status                              print table statistics
//	quit
//
// The IdMgr public key is read from -idmgr-key (hex); generate one with
// ppcd-sub -issue.
package main

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ppcd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppcd-pub: ")

	var (
		addr       = flag.String("addr", "127.0.0.1:7468", "listen address")
		policyPath = flag.String("policies", "", "policy file (required)")
		idmgrKey   = flag.String("idmgr-key", "", "IdMgr public key, hex (required)")
		seed       = flag.String("seed", "ppcd-system", "Pedersen parameter seed (must match subscribers)")
		ell        = flag.Int("ell", 16, "bit bound for inequality conditions")
		groupName  = flag.String("group", "schnorr", "commitment group: schnorr or jacobian")
		groupSize  = flag.Int("group-size", 0, "shard each policy's subscribers into groups of at most this many rows (§VIII-C; 0 = one ACV per configuration)")
		heartbeat  = flag.Duration("stream-heartbeat", 30*time.Second, "stream heartbeat interval (0 disables)")
		retain     = flag.Int("retain", 8, "recent epochs kept for fetches and stream delta catch-ups")
		queueDepth = flag.Int("queue-depth", 32, "per-stream outbound frame queue depth before a slow consumer is evicted")
		stateDir   = flag.String("state-dir", "", "durable-state directory: encrypted snapshot + WAL, auto-recovered on start")
		stateKey   = flag.String("state-key", "", "operator key file, hex (default <state-dir>/key.hex; created if absent)")
		snapEvery  = flag.Duration("snapshot-every", 5*time.Minute, "interval between compacted state snapshots (0 disables the ticker)")
		snapWAL    = flag.Int("snapshot-wal-records", 0, "also snapshot whenever this many WAL records accumulate since the last one (0 disables; bounds replay work after a crash under bursty churn)")
	)
	flag.Parse()

	if *policyPath == "" || *idmgrKey == "" {
		flag.Usage()
		os.Exit(2)
	}
	key, err := hex.DecodeString(*idmgrKey)
	if err != nil {
		log.Fatalf("bad -idmgr-key: %v", err)
	}

	grp := ppcd.SchnorrGroup()
	if *groupName == "jacobian" {
		grp = ppcd.PaperCurve()
	}
	params, err := ppcd.Setup(grp, []byte(*seed))
	if err != nil {
		log.Fatal(err)
	}

	acps, err := loadPolicies(*policyPath)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded %d policies from %s", len(acps), *policyPath)

	pub, err := ppcd.NewPublisher(params, key, acps, ppcd.Options{Ell: *ell, GroupSize: *groupSize})
	if err != nil {
		log.Fatal(err)
	}

	var st *ppcd.StateStore
	if *stateDir != "" {
		keyPath := *stateKey
		if keyPath == "" {
			keyPath = filepath.Join(*stateDir, "key.hex")
			if err := os.MkdirAll(*stateDir, 0o700); err != nil {
				log.Fatal(err)
			}
		}
		key, err := ppcd.LoadOrCreateKeyFile(keyPath)
		if err != nil {
			log.Fatal(err)
		}
		if st, err = ppcd.OpenStore(*stateDir, key); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		rec, err := st.Recover(pub)
		if err != nil {
			log.Fatalf("recovering state: %v", err)
		}
		if rec.Restored {
			log.Printf("recovered %d subscribers at epoch %d in %v (snapshot %d bytes, %d WAL events replayed, torn tail: %v)",
				pub.SubscriberCount(), pub.Epoch(), time.Since(start).Round(time.Millisecond),
				rec.SnapshotBytes, rec.Replayed, rec.TruncatedTail)
		} else {
			log.Printf("fresh state directory %s", *stateDir)
		}
		pub.SetJournal(st)
		// A fresh directory snapshots immediately: the incarnation generation
		// is freshly random and must become durable before any subscriber
		// sees it, so even a crash before the first interval snapshot
		// restarts warm. A restored store skips this — its generation came
		// from the snapshot just recovered, and rewriting a million-row state
		// on every boot is exactly what segmented snapshots avoid.
		if !rec.Restored {
			if err := st.Snapshot(pub); err != nil {
				log.Fatalf("initial snapshot: %v", err)
			}
		}
	}

	srv, err := ppcd.NewServer(pub)
	if err != nil {
		log.Fatal(err)
	}
	srv.SetHeartbeatInterval(*heartbeat)
	srv.SetRetention(*retain)
	srv.SetQueueDepth(*queueDepth)
	// Re-seed the retention ring with the recovered diff bases so
	// reconnecting subscribers holding pre-restart epochs catch up with a
	// delta instead of a snapshot.
	for _, b := range pub.LastBroadcasts() {
		if err := srv.PublishBroadcast(b); err != nil {
			log.Fatal(err)
		}
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	shutdown := func(code int) {
		if st != nil {
			if err := st.Snapshot(pub); err != nil {
				log.Printf("final snapshot: %v", err)
			}
			st.Close()
		}
		srv.Close()
		os.Exit(code)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigs
		log.Printf("%v: snapshotting and shutting down", sig)
		shutdown(0)
	}()
	if st != nil && *snapEvery > 0 {
		go func() {
			t := time.NewTicker(*snapEvery)
			defer t.Stop()
			for range t.C {
				if err := st.Snapshot(pub); err != nil {
					log.Printf("snapshot: %v", err)
				}
			}
		}()
	}
	if st != nil && *snapWAL > 0 {
		// WAL-growth trigger: a churn burst between interval ticks is bounded
		// to -snapshot-wal-records of replay, and the post-churn snapshot is
		// incremental so it costs O(churn), not O(state).
		go func() {
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for range t.C {
				if st.WALRecordsSinceSnapshot() < *snapWAL {
					continue
				}
				if err := st.Snapshot(pub); err != nil {
					log.Printf("snapshot (wal growth): %v", err)
				}
			}
		}()
	}
	log.Printf("serving registrations and broadcasts on %s (fetch + push streams, heartbeat %v, %d epochs retained)",
		bound, *heartbeat, *retain)

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Print("> ")
			continue
		}
		if err := dispatch(pub, srv, st, fields); err != nil {
			if err == errQuit {
				shutdown(0)
			}
			log.Printf("error: %v", err)
		}
		fmt.Print("> ")
	}
	// Stdin EOF (piped commands, Ctrl-D): same graceful exit as quit —
	// daemon deployments keep stdin open (a fifo or a terminal).
	shutdown(0)
}

var errQuit = fmt.Errorf("quit")

func dispatch(pub *ppcd.Publisher, srv *ppcd.Server, st *ppcd.StateStore, fields []string) error {
	switch fields[0] {
	case "publish":
		if len(fields) < 3 {
			return fmt.Errorf("usage: publish <path> <mark>[,...]")
		}
		data, err := os.ReadFile(fields[1])
		if err != nil {
			return err
		}
		doc, err := ppcd.SplitXML(fields[1], data, strings.Split(fields[2], ","))
		if err != nil {
			return err
		}
		before := pub.Stats()
		b, err := pub.Publish(doc)
		if err != nil {
			return err
		}
		if err := srv.PublishBroadcast(b); err != nil {
			return err
		}
		after := pub.Stats()
		log.Printf("published %s: %d subdocuments, %d configurations (%d rekeyed, %d from cache)",
			doc.Name, len(doc.Subdocs), len(b.Configs),
			after.Rebuilds-before.Rebuilds, after.CacheHits-before.CacheHits)
		return nil
	case "revoke":
		if len(fields) != 2 {
			return fmt.Errorf("usage: revoke <nym>")
		}
		if err := pub.RevokeSubscription(fields[1]); err != nil {
			return err
		}
		log.Printf("revoked %s; next publish rekeys", fields[1])
		return nil
	case "revoke-cred":
		if len(fields) < 3 {
			return fmt.Errorf("usage: revoke-cred <nym> <condition>")
		}
		cond := strings.Join(fields[2:], " ")
		if err := pub.RevokeCredential(fields[1], cond); err != nil {
			return err
		}
		log.Printf("revoked credential %q of %s", cond, fields[1])
		return nil
	case "snapshot":
		if st == nil {
			return fmt.Errorf("snapshot needs a durable state directory (-state-dir)")
		}
		if err := st.Snapshot(pub); err != nil {
			return err
		}
		s := st.LastSnapshotStats()
		log.Printf("snapshot written: %d of %d segments, %d bytes (full: %v)",
			s.DirtySegments, s.TotalSegments, s.BytesWritten, s.Full)
		return nil
	case "status":
		s := pub.Stats()
		log.Printf("%d registered pseudonyms, %d conditions, %d policies",
			pub.SubscriberCount(), len(pub.Conditions()), len(pub.Policies()))
		log.Printf("rekey engine: %d publishes, %d ACV rebuilds, %d cache hits, %d solves",
			s.Rekeys, s.Rebuilds, s.CacheHits, s.Solves)
		_, tableBytes := pub.TableMemory()
		policyRows, groupBytes := pub.GroupMemory()
		log.Printf("memory: table T %d bytes, group state %d bytes for %d policy rows",
			tableBytes, groupBytes, policyRows)
		built, held := srv.Snapshots()
		log.Printf("retention ring: %d epochs, %d snapshot frames built, %d snapshot bytes held",
			srv.RingLen(), built, held)
		if st != nil {
			log.Printf("durable state: %d publishes journaled without their outcome (too large for a WAL record)",
				st.OutcomesDropped())
		}
		return nil
	case "quit", "exit":
		return errQuit
	default:
		return fmt.Errorf("unknown command %q", fields[0])
	}
}

func loadPolicies(path string) ([]*ppcd.Policy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []*ppcd.Policy
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "|")
		if len(parts) != 4 {
			return nil, fmt.Errorf("%s:%d: want 'id | conds | doc | objects'", path, lineNo+1)
		}
		objs := strings.Split(strings.TrimSpace(parts[3]), ",")
		for i := range objs {
			objs[i] = strings.TrimSpace(objs[i])
		}
		acp, err := ppcd.NewPolicy(strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), strings.TrimSpace(parts[2]), objs...)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, lineNo+1, err)
		}
		out = append(out, acp)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no policies", path)
	}
	return out, nil
}
