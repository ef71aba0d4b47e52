// Command ppcd-sub is the subscriber-side CLI. Together with ppcd-pub it
// runs the full protocol across processes:
//
//	# one-time: create an identity manager seed and issue a token
//	ppcd-sub idmgr-init -idmgr-seed-file idmgr.seed
//	ppcd-sub issue -idmgr-seed-file idmgr.seed -nym pn-1 -tag age -value 30 -out token.json
//
//	# register at a running ppcd-pub and fetch + decrypt the latest broadcast
//	ppcd-sub register -addr 127.0.0.1:7468 -token token.json
//	ppcd-sub fetch    -addr 127.0.0.1:7468 -token token.json -outdir ./plain
//
//	# or stay subscribed: consume the publisher's push stream, applying
//	# epoch deltas and decrypting as new editions arrive (reconnects with
//	# the last applied epoch after connection loss)
//	ppcd-sub stream   -addr 127.0.0.1:7468 -token token.json -outdir ./plain
//
// Token files contain the PRIVATE opening (value + blinding); they never
// leave the subscriber's machine — registration only transmits commitments.
package main

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/big"
	"os"
	"path/filepath"
	"time"

	"ppcd"
	"ppcd/internal/idtoken"
)

// tokenFile is the on-disk subscriber credential: the public token plus the
// private opening.
type tokenFile struct {
	Nym        string `json:"nym"`
	Tag        string `json:"tag"`
	Commitment string `json:"commitment"` // hex
	Sig        string `json:"sig"`        // hex
	Value      string `json:"value"`      // decimal; PRIVATE
	Blinding   string `json:"blinding"`   // decimal; PRIVATE
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppcd-sub: ")
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]

	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7468", "publisher address")
		seedFile  = fs.String("idmgr-seed-file", "idmgr.seed", "identity manager seed file")
		nym       = fs.String("nym", "", "pseudonym")
		tag       = fs.String("tag", "", "attribute tag")
		value     = fs.String("value", "", "attribute value (kept private)")
		out       = fs.String("out", "token.json", "output token file")
		tokens    = fs.String("token", "token.json", "comma-unsupported: one token file")
		outdir    = fs.String("outdir", ".", "directory for decrypted subdocuments")
		seed      = fs.String("seed", "ppcd-system", "Pedersen parameter seed (must match publisher)")
		docFilter = fs.String("doc", "", "stream: only this document (default: all)")
	)
	if err := fs.Parse(args); err != nil {
		log.Fatal(err)
	}

	params, err := ppcd.Setup(ppcd.PaperCurve(), []byte(*seed))
	if err != nil {
		log.Fatal(err)
	}

	switch cmd {
	case "idmgr-init":
		s := make([]byte, 32)
		if _, err := rand.Read(s); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*seedFile, []byte(hex.EncodeToString(s)), 0o600); err != nil {
			log.Fatal(err)
		}
		mgr := loadIdMgr(params, *seedFile)
		fmt.Printf("identity manager initialised; public key (give to ppcd-pub -idmgr-key):\n%s\n",
			hex.EncodeToString(mgr.PublicKey()))
	case "idmgr-pubkey":
		mgr := loadIdMgr(params, *seedFile)
		fmt.Println(hex.EncodeToString(mgr.PublicKey()))
	case "issue":
		if *nym == "" || *tag == "" || *value == "" {
			log.Fatal("issue requires -nym, -tag and -value")
		}
		mgr := loadIdMgr(params, *seedFile)
		tok, sec, err := mgr.IssueString(*nym, *tag, *value)
		if err != nil {
			log.Fatal(err)
		}
		tf := tokenFile{
			Nym: tok.Nym, Tag: tok.Tag,
			Commitment: hex.EncodeToString(tok.Commitment),
			Sig:        hex.EncodeToString(tok.Sig),
			Value:      sec.Value.String(),
			Blinding:   sec.Blinding.String(),
		}
		data, err := json.MarshalIndent(tf, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, data, 0o600); err != nil {
			log.Fatal(err)
		}
		log.Printf("issued token for %s (%s); written to %s — keep it private", *nym, *tag, *out)
	case "register":
		sub := loadSubscriber(*tokens)
		client, err := ppcd.Dial(*addr, params)
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()
		n, regErr := sub.RegisterAll(client)
		// Save whatever was extracted even when some items failed: the
		// publisher has already committed those CSS cells to its table, so
		// discarding them here would desynchronize the two sides. But when
		// nothing was extracted AND registration failed, keep any previously
		// saved state instead of clobbering it with an empty one.
		if n > 0 || regErr == nil {
			state, err := sub.ExportCSS()
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(cssPath(*tokens), state, 0o600); err != nil {
				log.Fatal(err)
			}
		}
		if regErr != nil {
			if n > 0 {
				log.Printf("partial registration: extracted %d CSS(s), state saved to %s", n, cssPath(*tokens))
			}
			log.Fatal(regErr)
		}
		log.Printf("registered against %d conditions in one batched round trip; extracted %d CSS(s); state saved to %s",
			len(client.Conditions()), n, cssPath(*tokens))
	case "fetch":
		sub := loadSubscriber(*tokens)
		state, err := os.ReadFile(cssPath(*tokens))
		if err != nil {
			log.Fatalf("no CSS state (%v) — run register first", err)
		}
		if err := sub.ImportCSS(state); err != nil {
			log.Fatal(err)
		}
		client, err := ppcd.Dial(*addr, params)
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()
		b, err := client.Fetch("")
		if err != nil {
			log.Fatal(err)
		}
		got, err := sub.Decrypt(b)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			log.Fatal(err)
		}
		for name, content := range got {
			path, err := outPath(*outdir, name)
			if err != nil {
				log.Printf("skipping %v", err)
				continue
			}
			if err := os.WriteFile(path, content, 0o644); err != nil {
				log.Fatal(err)
			}
			log.Printf("decrypted %s → %s (%d bytes)", name, path, len(content))
		}
		log.Printf("authorized for %d of %d subdocuments of %q", len(got), len(b.Items), b.DocName)
	case "stream":
		sub := loadSubscriber(*tokens)
		state, err := os.ReadFile(cssPath(*tokens))
		if err != nil {
			log.Fatalf("no CSS state (%v) — run register first", err)
		}
		if err := sub.ImportCSS(state); err != nil {
			log.Fatal(err)
		}
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			log.Fatal(err)
		}
		runStream(params, *addr, *docFilter, *outdir, sub)
	default:
		usage()
	}
}

// streamIdleTimeout bounds how long the stream consumer waits for any frame
// (data or heartbeat) before treating the connection as dead and redialing;
// generous against the server's default 30s heartbeat cadence, so a
// silently dropped path (power loss, NAT idle reset) cannot hang the
// consumer forever.
const streamIdleTimeout = 2 * time.Minute

// runStream consumes the publisher's push stream forever: snapshots seed the
// subscriber's broadcast state, deltas patch it, and every data frame's
// decryptable subdocuments land in outdir. On connection loss it redials
// with the last applied epoch (and its publisher generation), so the
// catch-up is one delta whenever the server still retains that state.
func runStream(params *ppcd.CommitmentParams, addr, doc, outdir string, sub *ppcd.Subscriber) {
	var lastEpoch, lastGen uint64
	for {
		client, err := ppcd.Dial(addr, params)
		if err != nil {
			log.Printf("dial: %v; retrying in 2s", err)
			time.Sleep(2 * time.Second)
			continue
		}
		st, err := client.Subscribe(doc, lastEpoch, lastGen)
		if err != nil {
			client.Close()
			log.Printf("subscribe: %v; retrying in 2s", err)
			time.Sleep(2 * time.Second)
			continue
		}
		if origin := client.Origin(); origin != "" {
			log.Printf("subscribed at %s (relay for origin %s) from epoch %d", addr, origin, lastEpoch)
		} else {
			log.Printf("subscribed at %s from epoch %d", addr, lastEpoch)
		}
		for {
			if err := st.SetReadDeadline(time.Now().Add(streamIdleTimeout)); err != nil {
				log.Printf("stream: %v; reconnecting", err)
				break
			}
			f, err := st.Next()
			if err != nil {
				log.Printf("stream: %v; reconnecting", err)
				break
			}
			var docName, kind string
			var gen uint64
			switch f.Type {
			case ppcd.FrameSnapshot:
				if err := sub.ApplySnapshot(f.Snapshot); err != nil {
					log.Printf("snapshot: %v", err)
					continue
				}
				docName, gen, kind = f.Snapshot.DocName, f.Snapshot.Gen, "snapshot"
			case ppcd.FrameDelta:
				if err := sub.ApplyDelta(f.Delta); err != nil {
					// Typically a base mismatch after the server lost our
					// epoch (or restarted into a new generation): restart
					// from a snapshot.
					log.Printf("delta: %v; resubscribing from scratch", err)
					lastEpoch, lastGen = 0, 0
					break
				}
				docName, gen, kind = f.Delta.DocName, f.Delta.Gen, "delta"
			case ppcd.FrameHeartbeat:
				continue
			}
			if docName == "" {
				break // delta apply failed; reconnect
			}
			lastEpoch, lastGen = f.Epoch, gen
			got, err := sub.DecryptCurrent(docName)
			if err != nil {
				log.Printf("decrypt: %v", err)
				continue
			}
			for name, content := range got {
				path, err := outPath(outdir, name)
				if err != nil {
					log.Printf("skipping %v", err)
					continue
				}
				if err := os.WriteFile(path, content, 0o644); err != nil {
					log.Fatal(err)
				}
			}
			log.Printf("epoch %d of %q: applied %s, decrypted %d subdocuments (%d stream bytes total)",
				f.Epoch, docName, kind, len(got), st.BytesRead())
		}
		st.Close()
		client.Close()
		time.Sleep(time.Second)
	}
}

// outPath maps a broadcast subdocument name to its output file, rejecting
// names that would escape outdir — the names arrive from the network, and a
// hostile publisher must not be able to write outside the chosen directory.
func outPath(outdir, name string) (string, error) {
	if name == "" || name == "." || name == ".." || name != filepath.Base(name) {
		return "", fmt.Errorf("unsafe subdocument name %q", name)
	}
	return filepath.Join(outdir, name+".dec"), nil
}

// cssPath derives the CSS state file path from the token file path.
func cssPath(tokenPath string) string { return tokenPath + ".css" }

func loadIdMgr(params *ppcd.CommitmentParams, seedFile string) *ppcd.IdentityManager {
	data, err := os.ReadFile(seedFile)
	if err != nil {
		log.Fatalf("reading IdMgr seed: %v (run idmgr-init first)", err)
	}
	s, err := hex.DecodeString(string(data))
	if err != nil {
		log.Fatalf("bad seed file: %v", err)
	}
	mgr, err := idtoken.NewManagerFromSeed(params, s)
	if err != nil {
		log.Fatal(err)
	}
	return mgr
}

func loadSubscriber(tokenPath string) *ppcd.Subscriber {
	data, err := os.ReadFile(tokenPath)
	if err != nil {
		log.Fatal(err)
	}
	var tf tokenFile
	if err := json.Unmarshal(data, &tf); err != nil {
		log.Fatalf("parsing token file: %v", err)
	}
	sub, err := ppcd.NewSubscriber(tf.Nym)
	if err != nil {
		log.Fatal(err)
	}
	commitment, err := hex.DecodeString(tf.Commitment)
	if err != nil {
		log.Fatal(err)
	}
	sigBytes, err := hex.DecodeString(tf.Sig)
	if err != nil {
		log.Fatal(err)
	}
	val, ok := new(big.Int).SetString(tf.Value, 10)
	if !ok {
		log.Fatal("bad value in token file")
	}
	blind, ok := new(big.Int).SetString(tf.Blinding, 10)
	if !ok {
		log.Fatal("bad blinding in token file")
	}
	tok := &ppcd.Token{Nym: tf.Nym, Tag: tf.Tag, Commitment: commitment, Sig: sigBytes}
	sec := &ppcd.TokenSecret{Value: val, Blinding: blind}
	if err := sub.AddToken(tok, sec); err != nil {
		log.Fatal(err)
	}
	return sub
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ppcd-sub <idmgr-init|idmgr-pubkey|issue|register|fetch|stream> [flags]")
	os.Exit(2)
}
