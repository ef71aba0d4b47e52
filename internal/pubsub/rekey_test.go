package pubsub

import (
	"fmt"
	"math/big"
	"sync"
	"testing"

	"ppcd/internal/core"
	"ppcd/internal/idtoken"
	"ppcd/internal/ocbe"
	"ppcd/internal/policy"
)

// headerOf returns the broadcast header for the configuration containing the
// given subdocument.
func headerOf(t *testing.T, b *Broadcast, subdoc string) (*core.Header, policy.ConfigKey) {
	t.Helper()
	for _, it := range b.Items {
		if it.Subdoc != subdoc {
			continue
		}
		for _, ci := range b.Configs {
			if ci.Key == it.Config {
				return ci.Header, ci.Key
			}
		}
	}
	t.Fatalf("no config found for subdocument %q", subdoc)
	return nil, ""
}

func TestSteadyStatePublishZeroSolves(t *testing.T) {
	// Acceptance criterion: a Publish with no table change since the last one
	// performs zero ACV null-space solves and reuses cached headers.
	pub := newEHRPublisher(t)
	doctor := newSub(t, pub, "pn-ss", map[string]string{"role": "doc"})

	b1, err := pub.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	solvesAfterFirst := pub.Stats().Solves
	if solvesAfterFirst == 0 {
		t.Fatal("first publish solved nothing")
	}

	b2, err := pub.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := pub.Stats().Solves; got != solvesAfterFirst {
		t.Errorf("steady-state publish performed %d solves, want 0", got-solvesAfterFirst)
	}
	h1, _ := headerOf(t, b1, "Medication")
	h2, _ := headerOf(t, b2, "Medication")
	if h1 != h2 {
		t.Error("steady-state publish did not reuse the cached header")
	}
	// The reused key still decrypts.
	if got, _ := doctor.Decrypt(b2); len(got) != 5 {
		t.Errorf("doctor decrypted %d subdocs from steady-state broadcast", len(got))
	}
}

func TestIncrementalRekeyOnlyDirtyConfigs(t *testing.T) {
	// A membership change confined to acp4 (a level-only registration) must
	// rekey only the configurations containing acp4; the BillingInfo
	// configuration (acp2|acp6) keeps its cached header.
	pub := newEHRPublisher(t)
	newSub(t, pub, "pn-doc", map[string]string{"role": "doc"})
	newSub(t, pub, "pn-pha", map[string]string{"role": "pha"})

	b1, err := pub.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}

	// This subscriber holds only a level token, so it registers only for
	// "level >= 59" — membership can only have changed for acp4.
	newSub(t, pub, "pn-lvl", map[string]string{"level": "80"})
	rebuildsBefore := pub.Stats().Rebuilds

	b2, err := pub.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	billing1, _ := headerOf(t, b1, "BillingInfo")
	billing2, _ := headerOf(t, b2, "BillingInfo")
	if billing1 != billing2 {
		t.Error("BillingInfo configuration was rekeyed without a membership change")
	}
	med1, _ := headerOf(t, b1, "Medication")
	med2, _ := headerOf(t, b2, "Medication")
	if med1 == med2 {
		t.Error("Medication configuration (contains acp4) was not rekeyed")
	}
	rebuilds := pub.Stats().Rebuilds - rebuildsBefore
	// Dirty configurations: ContactInfo's and Medication's (both contain
	// acp4). PhysicalExams/LabRecords/Plan share those config keys, so only
	// configs containing acp4 rebuild.
	if rebuilds == 0 || rebuilds >= uint64(len(b2.Configs)) {
		t.Errorf("rebuilt %d of %d configurations; want a strict subset", rebuilds, len(b2.Configs))
	}
}

func TestRevocationRekeysConfigurationKey(t *testing.T) {
	// Satellite acceptance: after RevokeSubscription/RevokeCredential the
	// next broadcast's configuration key CHANGES, the revoked subscriber's
	// Decrypt fails, and remaining subscribers still decrypt.
	pub := newEHRPublisher(t)
	doc1 := newSub(t, pub, "pn-rev-a", map[string]string{"role": "doc"})
	doc2 := newSub(t, pub, "pn-rev-b", map[string]string{"role": "doc"})
	nurse := newSub(t, pub, "pn-rev-n", map[string]string{"role": "nur", "level": "77"})

	b1, err := pub.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	h1, cfgKey := headerOf(t, b1, "Medication")

	// doc2's CSS row for acp3 derives the configuration key from the header.
	row2, ok := doc2.rowFor(PolicyInfo{ID: "acp3", CondIDs: []string{"role = doc"}})
	if !ok {
		t.Fatal("doc2 has no acp3 row")
	}
	k1, err := core.DeriveKey(row2, h1)
	if err != nil {
		t.Fatal(err)
	}

	if err := pub.RevokeSubscription("pn-rev-a"); err != nil {
		t.Fatal(err)
	}
	b2, err := pub.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	h2, cfgKey2 := headerOf(t, b2, "Medication")
	if cfgKey != cfgKey2 {
		t.Fatalf("configuration key changed identity: %q vs %q", cfgKey, cfgKey2)
	}
	k2, err := core.DeriveKey(row2, h2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Error("configuration key did not change after subscription revocation")
	}
	if got, _ := doc1.Decrypt(b2); len(got) != 0 {
		t.Errorf("revoked subscriber decrypted %d subdocs", len(got))
	}
	if got, _ := doc2.Decrypt(b2); len(got) != 5 {
		t.Errorf("remaining doctor decrypted %d subdocs, want 5", len(got))
	}

	// Credential revocation: drop the nurse's level CSS → acp4 rekeys again.
	if err := pub.RevokeCredential("pn-rev-n", "level >= 59"); err != nil {
		t.Fatal(err)
	}
	b3, err := pub.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	h3, _ := headerOf(t, b3, "Medication")
	k3, err := core.DeriveKey(row2, h3)
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k2 {
		t.Error("configuration key did not change after credential revocation")
	}
	if got, _ := nurse.Decrypt(b3); len(got) != 0 {
		t.Errorf("nurse decrypted %d subdocs after credential revocation", len(got))
	}
	if got, _ := doc2.Decrypt(b3); len(got) != 5 {
		t.Errorf("doctor lost access after nurse revocation: %d subdocs", len(got))
	}
}

func TestRevokeCredentialRemovesEmptyRow(t *testing.T) {
	// Satellite fix: deleting a nym's last CSS must delete the row itself —
	// no ghost subscriber inflating SubscriberCount.
	params, mgr := testEnv(t)
	acp, err := policy.New("adults", "age >= 18", "news", "body")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(params, mgr.PublicKey(), []*policy.ACP{acp}, Options{Ell: 8})
	if err != nil {
		t.Fatal(err)
	}
	newSub(t, pub, "pn-ghost", map[string]string{"age": "30"})
	if pub.SubscriberCount() != 1 {
		t.Fatalf("SubscriberCount = %d, want 1", pub.SubscriberCount())
	}
	if err := pub.RevokeCredential("pn-ghost", "age >= 18"); err != nil {
		t.Fatal(err)
	}
	if pub.SubscriberCount() != 0 {
		t.Errorf("SubscriberCount = %d after last credential revoked, want 0", pub.SubscriberCount())
	}
	if row := pub.reg.rowCopy("pn-ghost"); row != nil {
		t.Errorf("ghost row survived: %v", row)
	}
	// The nym is gone entirely: revoking it again errs like any unknown nym.
	if err := pub.RevokeSubscription("pn-ghost"); err == nil {
		t.Error("ghost subscriber still revocable")
	}
}

func TestConcurrentRegisterDuringPublish(t *testing.T) {
	// Acceptance criterion: Register must never serialize against (or race
	// with) Publish. Run with -race.
	pub := newEHRPublisher(t)
	newSub(t, pub, "pn-base", map[string]string{"role": "doc"})
	_, mgr := testEnv(t)

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			nym := fmt.Sprintf("pn-race-%d", w)
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
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if _, err := pub.Publish(ehrDoc(t)); err != nil {
				errs <- err
				return
			}
			// Interleave revocation churn with the publishes; only the first
			// call finds the cell, later ones err harmlessly.
			_ = pub.RevokeCredential("pn-base", "role = cas")
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Everyone who finished registering before this publish can decrypt.
	b, err := pub.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Configs) == 0 {
		t.Fatal("empty broadcast")
	}
}

func TestRegisterBatchDirect(t *testing.T) {
	// RegisterBatch composes all envelopes in one call, verifies each
	// distinct token once, and reports item-level failures without failing
	// the batch.
	pub := newEHRPublisher(t)
	_, mgr := testEnv(t)
	sub, err := NewSubscriber("pn-batch")
	if err != nil {
		t.Fatal(err)
	}
	tok, sec, err := mgr.IssueString("pn-batch", "role", "doc")
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.AddToken(tok, sec); err != nil {
		t.Fatal(err)
	}

	// The batched RegisterAll path extracts exactly the satisfied CSS.
	n, err := sub.RegisterAll(pub)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("extracted %d CSSs, want 1", n)
	}
	row := pub.reg.rowCopy("pn-batch")
	if len(row) != 6 {
		t.Errorf("table row has %d cells, want 6 (uniform registration)", len(row))
	}

	// A malformed item inside a batch fails only that item.
	results, err := pub.RegisterBatch([]*RegistrationRequest{
		nil,
		{Token: tok, CondID: "ghost = 1", OCBE: nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for i, res := range results {
		if res.Err == "" || res.Envelope != nil {
			t.Errorf("item %d: expected per-item error, got %+v", i, res)
		}
	}
	if _, err := pub.RegisterBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
}

// flakyRegistrar forwards to the real publisher but reports the first
// item as failed, simulating a partial batch failure AFTER the publisher
// committed the other cells.
type flakyRegistrar struct{ *Publisher }

func (f flakyRegistrar) RegisterBatch(reqs []*RegistrationRequest) ([]BatchResult, error) {
	res, err := f.Publisher.RegisterBatch(reqs)
	if err == nil && len(res) > 0 {
		res[0] = BatchResult{CondID: res[0].CondID, Err: "injected item failure"}
	}
	return res, err
}

func TestRegisterAllKeepsExtractionsOnPartialBatchFailure(t *testing.T) {
	// If one batch item fails, the successfully delivered envelopes must
	// still be opened — the publisher already committed their CSS cells, so
	// dropping them would desynchronize subscriber and table T.
	pub := newEHRPublisher(t)
	_, mgr := testEnv(t)
	sub, err := NewSubscriber("pn-partial")
	if err != nil {
		t.Fatal(err)
	}
	tok, sec, err := mgr.IssueString("pn-partial", "role", "doc")
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.AddToken(tok, sec); err != nil {
		t.Fatal(err)
	}
	n, err := sub.RegisterAll(flakyRegistrar{pub})
	if err == nil {
		t.Fatal("item failure not reported")
	}
	// The failing item is "role = cas" (first in sorted condition order),
	// which the doctor does not satisfy anyway; the satisfied "role = doc"
	// envelope must have been kept and opened.
	if n != 1 {
		t.Errorf("extracted %d CSSs despite partial failure, want 1", n)
	}
	if !sub.HasCSS("role = doc") {
		t.Error("satisfied CSS discarded on unrelated item failure")
	}
}

func TestRegisterBatchSizeCap(t *testing.T) {
	pub := newEHRPublisher(t)
	big := make([]*RegistrationRequest, MaxRegistrationBatch+1)
	if _, err := pub.RegisterBatch(big); err == nil {
		t.Error("oversized batch accepted")
	}
}

func TestRegisterRejectsForeignCommitment(t *testing.T) {
	// The OCBE exchange must be bound to the IdMgr-certified commitment: a
	// subscriber holding a valid token for age=16 must not be able to run
	// OCBE on a self-chosen commitment to 70 and extract the "age >= 18"
	// CSS.
	params, mgr := testEnv(t)
	acp, err := policy.New("adults", "age >= 18", "news", "body")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(params, mgr.PublicKey(), []*policy.ACP{acp}, Options{Ell: 8})
	if err != nil {
		t.Fatal(err)
	}
	tok, _, err := mgr.IssueString("pn-forge", "age", "16")
	if err != nil {
		t.Fatal(err)
	}
	// Attacker-built commitment to a satisfying value with a known opening.
	forged := ocbe.NewReceiver(params, idtoken.EncodeValue(params.Order(), "70"), big.NewInt(123456789))
	cond := pub.Conditions()[0]
	pred := ocbe.Predicate{Op: cond.Op, X0: idtoken.EncodeValue(params.Order(), cond.Value)}
	_, req, err := forged.Prepare(pred, pub.Ell())
	if err != nil {
		t.Fatal(err)
	}
	// The forgery fails its item, with the certified commitment named.
	results, err := pub.RegisterBatch([]*RegistrationRequest{{Token: tok, CondID: cond.ID(), OCBE: req}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != ErrCommitmentMismatch.Error() || results[0].Envelope != nil {
		t.Errorf("forged commitment not rejected: %+v", results[0])
	}
	if pub.SubscriberCount() != 0 {
		t.Errorf("forged registration left a table row")
	}
}
