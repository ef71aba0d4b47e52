package ppcd_test

import (
	"bytes"
	"sync"
	"testing"

	"ppcd"
)

var (
	apiOnce   sync.Once
	apiParams *ppcd.CommitmentParams
	apiIdMgr  *ppcd.IdentityManager
)

func apiEnv(t *testing.T) (*ppcd.CommitmentParams, *ppcd.IdentityManager) {
	t.Helper()
	apiOnce.Do(func() {
		p, err := ppcd.Setup(ppcd.PaperCurve(), []byte("api-test"))
		if err != nil {
			panic(err)
		}
		m, err := ppcd.NewIdentityManager(p)
		if err != nil {
			panic(err)
		}
		apiParams, apiIdMgr = p, m
	})
	return apiParams, apiIdMgr
}

// TestPublicAPIRoundTrip runs the README quickstart flow through the public
// facade only.
func TestPublicAPIRoundTrip(t *testing.T) {
	params, idmgr := apiEnv(t)

	acp, err := ppcd.NewPolicy("adults", "age >= 18", "news", "body")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := ppcd.NewPublisher(params, idmgr.PublicKey(), []*ppcd.Policy{acp}, ppcd.Options{Ell: 8})
	if err != nil {
		t.Fatal(err)
	}

	alice, err := ppcd.NewSubscriber("pn-alice")
	if err != nil {
		t.Fatal(err)
	}
	tok, sec, err := idmgr.IssueString("pn-alice", "age", "30")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.AddToken(tok, sec); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.RegisterAll(pub); err != nil {
		t.Fatal(err)
	}

	doc, err := ppcd.NewDocument("news", ppcd.Subdocument{Name: "body", Content: []byte("story")})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pub.Publish(doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := alice.Decrypt(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got["body"], []byte("story")) {
		t.Fatalf("decrypted %q", got["body"])
	}
}

func TestPublicAPINetworkFlow(t *testing.T) {
	params, idmgr := apiEnv(t)
	acp, err := ppcd.NewPolicy("vip", "tier >= 2", "feed", "exclusive")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := ppcd.NewPublisher(params, idmgr.PublicKey(), []*ppcd.Policy{acp}, ppcd.Options{Ell: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ppcd.NewServer(pub)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := ppcd.Dial(addr, params)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	vip, err := ppcd.NewSubscriber("pn-vip")
	if err != nil {
		t.Fatal(err)
	}
	tok, sec, err := idmgr.IssueString("pn-vip", "tier", "3")
	if err != nil {
		t.Fatal(err)
	}
	if err := vip.AddToken(tok, sec); err != nil {
		t.Fatal(err)
	}
	if _, err := vip.RegisterAll(client); err != nil {
		t.Fatal(err)
	}

	doc, err := ppcd.NewDocument("feed", ppcd.Subdocument{Name: "exclusive", Content: []byte("vip-only")})
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
	fetched, err := client.Fetch("feed")
	if err != nil {
		t.Fatal(err)
	}
	got, err := vip.Decrypt(fetched)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got["exclusive"], []byte("vip-only")) {
		t.Fatalf("decrypted %q", got["exclusive"])
	}
}

func TestPublicAPIXMLAndConditions(t *testing.T) {
	c, err := ppcd.ParseCondition("role = nurse")
	if err != nil {
		t.Fatal(err)
	}
	if c.Attr != "role" {
		t.Error("parse wrong")
	}
	doc, err := ppcd.SplitXML("d.xml", []byte("<r><A>x</A><B>y</B></r>"), []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Subdocs) != 3 { // A, B, _rest
		t.Errorf("subdocs = %v", doc.Names())
	}
}

func TestPaperCurveAccessible(t *testing.T) {
	if testing.Short() {
		t.Skip("jacobian setup is slow")
	}
	g := ppcd.PaperCurve()
	if g.Name() == "" || g.Order().Sign() <= 0 {
		t.Error("paper curve malformed")
	}
	if _, err := ppcd.Setup(g, []byte("x")); err != nil {
		t.Error(err)
	}
}
