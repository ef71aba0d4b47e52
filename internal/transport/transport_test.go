package transport

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"ppcd/internal/document"
	"ppcd/internal/g2"
	"ppcd/internal/idtoken"
	"ppcd/internal/pedersen"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
	"ppcd/internal/wire"
)

var (
	once   sync.Once
	params *pedersen.Params
	mgr    *idtoken.Manager
)

func env(t testing.TB) (*pedersen.Params, *idtoken.Manager) {
	t.Helper()
	once.Do(func() {
		p, err := pedersen.Setup(g2.MustPaperCurve(), []byte("transport-test"))
		if err != nil {
			panic(err)
		}
		m, err := idtoken.NewManager(p)
		if err != nil {
			panic(err)
		}
		params, mgr = p, m
	})
	return params, mgr
}

func startServer(t *testing.T) (*Server, string, *pubsub.Publisher) {
	t.Helper()
	p, m := env(t)
	acp, err := policy.New("adult", "age >= 18", "news.txt", "body")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pubsub.NewPublisher(p, m.PublicKey(), []*policy.ACP{acp}, pubsub.Options{Ell: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(pub)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, pub
}

func TestRegistrationAndFetchOverTCP(t *testing.T) {
	p, _ := env(t)
	srv, addr, pub := startServer(t)

	client, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if client.Ell() != 8 {
		t.Errorf("Ell = %d", client.Ell())
	}
	conds := client.Conditions()
	if len(conds) != 1 || conds[0].ID() != "age >= 18" {
		t.Fatalf("conditions = %v", conds)
	}

	// Adult subscriber registers over the wire.
	sub, err := pubsub.NewSubscriber("pn-net")
	if err != nil {
		t.Fatal(err)
	}
	tok, sec, err := mgr.IssueString("pn-net", "age", "30")
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.AddToken(tok, sec); err != nil {
		t.Fatal(err)
	}
	n, err := sub.RegisterAll(client)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("extracted %d CSSs, want 1", n)
	}

	// Publish and fetch.
	doc, err := document.New("news.txt", document.Subdocument{Name: "body", Content: []byte("tonight's story")})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pub.Publish(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.PublishBroadcast(b); err != nil {
		t.Fatal(err)
	}
	fetched, err := client.Fetch("")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sub.Decrypt(fetched)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got["body"], []byte("tonight's story")) {
		t.Errorf("decrypted %q", got["body"])
	}

	// A minor registers over the same infrastructure but extracts nothing
	// and decrypts nothing — and the server cannot tell.
	minor, err := pubsub.NewSubscriber("pn-minor")
	if err != nil {
		t.Fatal(err)
	}
	tok2, sec2, err := mgr.IssueString("pn-minor", "age", "15")
	if err != nil {
		t.Fatal(err)
	}
	minor.AddToken(tok2, sec2)
	client2, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	n2, err := minor.RegisterAll(client2)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 0 {
		t.Errorf("minor extracted %d CSSs", n2)
	}
	if pub.SubscriberCount() != 2 {
		t.Errorf("publisher sees %d subscribers, want 2 (minor's registration is indistinguishable)", pub.SubscriberCount())
	}
	// Rekey includes the minor's row; adult must still decrypt.
	b2, err := pub.Publish(doc)
	if err != nil {
		t.Fatal(err)
	}
	srv.PublishBroadcast(b2)
	fetched2, err := client.Fetch("news.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sub.Decrypt(fetched2); len(got) != 1 {
		t.Error("adult lost access after minor joined")
	}
	if got, _ := minor.Decrypt(fetched2); len(got) != 0 {
		t.Error("minor gained access")
	}
}

func TestFetchUnknownDoc(t *testing.T) {
	p, _ := env(t)
	_, addr, _ := startServer(t)
	client, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Fetch("missing.txt"); err == nil {
		t.Error("fetch of unknown doc succeeded")
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Error("nil publisher accepted")
	}
	_, _, pub := startServer(t)
	srv, err := NewServer(pub)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.PublishBroadcast(nil); err == nil {
		t.Error("nil broadcast accepted")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close without listen: %v", err)
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", nil); err == nil {
		t.Error("nil params accepted")
	}
	p, _ := env(t)
	if _, err := Dial("127.0.0.1:1", p); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestCloseIdempotent(t *testing.T) {
	srv, _, _ := startServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchedRegistrationOverTCP(t *testing.T) {
	// RegisterAll against a network client must complete in ONE round trip
	// via the register-batch RPC, covering several conditions at once.
	p, m := env(t)
	acp1, err := policy.New("adult", "age >= 18", "mag.txt", "body")
	if err != nil {
		t.Fatal(err)
	}
	acp2, err := policy.New("senior", "age >= 65", "mag.txt", "extra")
	if err != nil {
		t.Fatal(err)
	}
	// Equality condition: its OCBE request carries an empty bit-commitment
	// placeholder, which the batch must carry as it is.
	acp3, err := policy.New("staff", "role = vip", "mag.txt", "extra")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pubsub.NewPublisher(p, m.PublicKey(), []*policy.ACP{acp1, acp2, acp3}, pubsub.Options{Ell: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(pub)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	client, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	sub, err := pubsub.NewSubscriber("pn-batch-net")
	if err != nil {
		t.Fatal(err)
	}
	tok, sec, err := mgr.IssueString("pn-batch-net", "age", "70")
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.AddToken(tok, sec); err != nil {
		t.Fatal(err)
	}
	rtok, rsec, err := mgr.IssueString("pn-batch-net", "role", "vip")
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.AddToken(rtok, rsec); err != nil {
		t.Fatal(err)
	}
	n, err := sub.RegisterAll(client)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("extracted %d CSSs, want 3 (two age + one role condition satisfied)", n)
	}
	if pub.SubscriberCount() != 1 {
		t.Fatalf("SubscriberCount = %d", pub.SubscriberCount())
	}

	// An invalid item is reported per result, not as a connection error.
	results, err := client.RegisterBatch([]*pubsub.RegistrationRequest{
		{Token: tok, CondID: "ghost = 1", OCBE: nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err == "" {
		t.Errorf("expected per-item error, got %+v", results)
	}

	// Empty batches are rejected server-side, as a typed refusal carrying the
	// publisher's text — and the connection stays usable.
	var refused *wire.RemoteError
	if _, err := client.RegisterBatch(nil); !errors.As(err, &refused) || refused.Msg != "pubsub: empty registration batch" {
		t.Errorf("empty batch over the wire: %v", err)
	}
	if len(client.Conditions()) != 3 {
		t.Error("connection unusable after a refusal")
	}
}
