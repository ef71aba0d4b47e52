// Command ppcd-relay runs a stateless dissemination edge: it subscribes to
// an upstream publisher (or another relay), keeps a bounded ring of the raw
// epoch frames it receives, and re-serves snapshot/delta/heartbeat streams
// plus reconnect catch-up to downstream subscribers. Registration and fetch
// RPCs are proxied to the upstream, so an unmodified ppcd-sub works against
// the relay's address.
//
// Relays hold no key material — every frame is publicly distributable by
// construction — and chain freely:
//
//	ppcd-pub -addr :7468
//	ppcd-relay -upstream 127.0.0.1:7468 -addr :7469
//	ppcd-relay -upstream 127.0.0.1:7469 -addr :7470   # depth-2 edge
//	ppcd-sub stream -addr 127.0.0.1:7470 ...
//
// On SIGTERM/SIGINT the relay shuts down cleanly; on upstream loss it
// reconnects with its last applied (epoch, Gen) for a one-delta catch-up,
// falling back to a fresh snapshot when the upstream no longer retains that
// state (or restarted under a new generation).
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ppcd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppcd-relay: ")

	var (
		addr       = flag.String("addr", "127.0.0.1:7469", "downstream listen address")
		upstream   = flag.String("upstream", "", "upstream publisher or relay address (required)")
		seed       = flag.String("seed", "ppcd-system", "Pedersen parameter seed (must match the system)")
		groupName  = flag.String("group", "schnorr", "commitment group: schnorr or jacobian")
		doc        = flag.String("doc", "", "relay only this document (default all)")
		retain     = flag.Int("retain", 8, "recent epochs kept for fetches and stream delta catch-ups")
		queueDepth = flag.Int("queue-depth", 128, "per-stream outbound frame queue depth before a slow consumer is evicted")
		heartbeat  = flag.Duration("stream-heartbeat", 30*time.Second, "downstream heartbeat interval (0 disables)")
		idle       = flag.Duration("idle-timeout", 2*time.Minute, "reconnect when the upstream stream is silent this long")
		redial     = flag.Duration("reconnect-delay", time.Second, "pause between upstream redial attempts")
		statsEvery = flag.Duration("stats-every", time.Minute, "interval between stats log lines (0 disables)")
	)
	flag.Parse()

	if *upstream == "" {
		flag.Usage()
		os.Exit(2)
	}

	grp := ppcd.SchnorrGroup()
	if *groupName == "jacobian" {
		grp = ppcd.PaperCurve()
	}
	params, err := ppcd.Setup(grp, []byte(*seed))
	if err != nil {
		log.Fatal(err)
	}

	r, err := ppcd.NewRelay(*upstream, params, &ppcd.RelayOptions{
		Retain:         *retain,
		QueueDepth:     *queueDepth,
		Heartbeat:      *heartbeat,
		Doc:            *doc,
		IdleTimeout:    *idle,
		ReconnectDelay: *redial,
	})
	if err != nil {
		log.Fatal(err)
	}
	bound, err := r.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("relaying %s on %s (retain %d, queue depth %d)", *upstream, bound, *retain, *queueDepth)

	if *statsEvery > 0 {
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for range t.C {
				s := r.Stats()
				frames, bytes := r.Egress()
				log.Printf("epoch %d, %d downstream streams, egress %d frames / %d bytes, upstream %d snapshots + %d deltas (%d reconnects, %d resets), %d snapshot frames built / %d snapshot bytes held",
					r.LastEpoch(), r.Streams(), frames, bytes, s.Snapshots, s.Deltas, s.Reconnects, s.Resets,
					s.SnapshotsBuilt, s.SnapshotBytesHeld)
			}
		}()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigs
	log.Printf("%v: shutting down", sig)
	r.Close()
}
