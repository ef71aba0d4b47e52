package pubsub

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"testing"

	"ppcd/internal/document"
	"ppcd/internal/ocbe"
	"ppcd/internal/policy"
)

func TestBroadcastGobRoundTrip(t *testing.T) {
	// A broadcast package is a plain exported value: a reflection codec
	// carries it unchanged, and the copy still decrypts.
	pub := newEHRPublisher(t)
	newSub(t, pub, "pn-gob", map[string]string{"role": "doc"})
	b, err := pub.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(b); err != nil {
		t.Fatal(err)
	}
	var decoded Broadcast
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.DocName != b.DocName || len(decoded.Items) != len(b.Items) || len(decoded.Configs) != len(b.Configs) {
		t.Fatal("broadcast shape changed across gob")
	}
	// A subscriber can decrypt the decoded copy.
	sub := newSub(t, pub, "pn-gob2", map[string]string{"role": "pha"})
	b2, err := pub.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(b2); err != nil {
		t.Fatal(err)
	}
	var dec2 Broadcast
	if err := gob.NewDecoder(&buf).Decode(&dec2); err != nil {
		t.Fatal(err)
	}
	got, err := sub.Decrypt(&dec2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("pharmacist decrypted %d subdocs from gob copy", len(got))
	}
}

func TestConcurrentRegistration(t *testing.T) {
	// Many subscribers registering in parallel must not corrupt table T.
	pub := newEHRPublisher(t)
	_, mgr := testEnv(t)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			nym := fmt.Sprintf("pn-conc-%d", w)
			sub, err := NewSubscriber(nym)
			if err != nil {
				errs <- err
				return
			}
			tok, sec, err := mgr.IssueString(nym, "role", "doc")
			if err != nil {
				errs <- err
				return
			}
			if err := sub.AddToken(tok, sec); err != nil {
				errs <- err
				return
			}
			if _, err := sub.RegisterAll(pub); err != nil {
				errs <- err
				return
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if pub.SubscriberCount() != workers {
		t.Errorf("table has %d rows, want %d", pub.SubscriberCount(), workers)
	}
	// All concurrent registrants can decrypt.
	b, err := pub.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	_ = b
}

func TestStaleCSSAfterCredentialUpdateElsewhere(t *testing.T) {
	// When a subscriber re-registers, its old CSSs become stale at the
	// publisher. Decrypt must degrade gracefully (no error, no access with
	// the stale secret state of a *different* local copy).
	pub := newEHRPublisher(t)
	_, mgr := testEnv(t)

	// The subscriber registers once and keeps a "stale clone" of itself.
	nym := "pn-stale"
	sub, err := NewSubscriber(nym)
	if err != nil {
		t.Fatal(err)
	}
	tok, sec, err := mgr.IssueString(nym, "role", "doc")
	if err != nil {
		t.Fatal(err)
	}
	sub.AddToken(tok, sec)
	if _, err := sub.RegisterAll(pub); err != nil {
		t.Fatal(err)
	}

	stale, err := NewSubscriber(nym)
	if err != nil {
		t.Fatal(err)
	}
	stale.AddToken(tok, sec)
	if _, err := stale.RegisterAll(pub); err != nil {
		t.Fatal(err)
	}
	// stale's registration OVERWROTE sub's CSSs at the publisher; sub's
	// copies are now stale.
	b, err := pub.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sub.Decrypt(b); err != nil || len(got) != 0 {
		t.Errorf("stale subscriber state decrypted %d subdocs (err %v)", len(got), err)
	}
	if got, _ := stale.Decrypt(b); len(got) != 5 {
		t.Errorf("fresh registration decrypts %d subdocs, want 5", len(got))
	}
}

func TestMultipleDocumentsIndependentKeys(t *testing.T) {
	// Publishing two documents produces independent headers; decrypting one
	// grants nothing on the other (each Publish is its own session).
	pub := newEHRPublisher(t)
	doctor := newSub(t, pub, "pn-multi", map[string]string{"role": "doc"})
	d1 := ehrDoc(t)
	d2, err := document.New("EHR.xml",
		document.Subdocument{Name: "Medication", Content: []byte("<Medication>updated</Medication>")},
	)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := pub.Publish(d1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := pub.Publish(d2)
	if err != nil {
		t.Fatal(err)
	}
	got1, _ := doctor.Decrypt(b1)
	got2, _ := doctor.Decrypt(b2)
	if len(got1) != 5 || len(got2) != 1 {
		t.Fatalf("decrypt counts: %d, %d", len(got1), len(got2))
	}
	if !bytes.Contains(got2["Medication"], []byte("updated")) {
		t.Error("second document content wrong")
	}
}

func TestPolicyWithGlobalDocScope(t *testing.T) {
	// An ACP with empty Doc applies to every document.
	params, mgr := testEnv(t)
	acp, err := policy.New("any", "role = doc", "", "Medication")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(params, mgr.PublicKey(), []*policy.ACP{acp}, Options{Ell: 8})
	if err != nil {
		t.Fatal(err)
	}
	doc := newSub(t, pub, "pn-g", map[string]string{"role": "doc"})
	for _, name := range []string{"a.xml", "b.xml"} {
		d, err := document.New(name, document.Subdocument{Name: "Medication", Content: []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		b, err := pub.Publish(d)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := doc.Decrypt(b); len(got) != 1 {
			t.Errorf("%s: global policy did not apply", name)
		}
	}
}

func TestRegistrarInterfaceCompliance(t *testing.T) {
	var _ Registrar = (*Publisher)(nil)
}

func TestRegisterRejectsInvalidOCBERequest(t *testing.T) {
	pub := newEHRPublisher(t)
	_, mgr := testEnv(t)
	tok, _, err := mgr.IssueString("pn-bad", "role", "doc")
	if err != nil {
		t.Fatal(err)
	}
	// Garbage commitment bytes must be rejected: they are not the token's
	// certified commitment, let alone a group element.
	if registerOne(t, pub, &RegistrationRequest{
		Token:  tok,
		CondID: "role = doc",
		OCBE:   &ocbe.Request{Commitment: []byte("not-a-group-element")},
	}) == "" {
		t.Error("garbage OCBE request accepted")
	}
}
