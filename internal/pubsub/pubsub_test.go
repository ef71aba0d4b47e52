package pubsub

import (
	"bytes"
	"sync"
	"testing"

	"ppcd/internal/document"
	"ppcd/internal/idtoken"
	"ppcd/internal/ocbe"
	"ppcd/internal/pedersen"
	"ppcd/internal/policy"
	"ppcd/internal/schnorr"
)

var (
	envOnce sync.Once
	tParams *pedersen.Params
	tMgr    *idtoken.Manager
)

func testEnv(t testing.TB) (*pedersen.Params, *idtoken.Manager) {
	t.Helper()
	envOnce.Do(func() {
		p, err := pedersen.Setup(schnorr.Must2048(), []byte("pubsub-test"))
		if err != nil {
			panic(err)
		}
		m, err := idtoken.NewManager(p)
		if err != nil {
			panic(err)
		}
		tParams, tMgr = p, m
	})
	return tParams, tMgr
}

// ehrACPs are the six access control policies of the paper's Example 4.
func ehrACPs(t *testing.T) []*policy.ACP {
	t.Helper()
	specs := []struct {
		id, cond string
		objs     []string
	}{
		{"acp1", "role = rec", []string{"ContactInfo"}},
		{"acp2", "role = cas", []string{"BillingInfo"}},
		{"acp3", "role = doc", []string{"ContactInfo", "Medication", "PhysicalExams", "LabRecords", "Plan"}},
		{"acp4", "role = nur && level >= 59", []string{"ContactInfo", "Medication", "PhysicalExams", "LabRecords", "Plan"}},
		{"acp5", "role = dat", []string{"ContactInfo", "LabRecords"}},
		{"acp6", "role = pha", []string{"BillingInfo", "Medication"}},
	}
	var acps []*policy.ACP
	for _, s := range specs {
		a, err := policy.New(s.id, s.cond, "EHR.xml", s.objs...)
		if err != nil {
			t.Fatal(err)
		}
		acps = append(acps, a)
	}
	return acps
}

func ehrDoc(t *testing.T) *document.Document {
	t.Helper()
	doc, err := document.New("EHR.xml",
		document.Subdocument{Name: "ContactInfo", Content: []byte("<ContactInfo>John Doe</ContactInfo>")},
		document.Subdocument{Name: "BillingInfo", Content: []byte("<BillingInfo>Acme Health</BillingInfo>")},
		document.Subdocument{Name: "Medication", Content: []byte("<Medication>aspirin</Medication>")},
		document.Subdocument{Name: "PhysicalExams", Content: []byte("<PhysicalExams>BP 120/80</PhysicalExams>")},
		document.Subdocument{Name: "LabRecords", Content: []byte("<LabRecords>X-ray neg</LabRecords>")},
		document.Subdocument{Name: "Plan", Content: []byte("<Plan>follow-up</Plan>")},
		document.Subdocument{Name: "Other", Content: []byte("<Other>internal</Other>")},
	)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// newSub creates a subscriber, issues the given attribute tokens and runs
// registration against pub.
func newSub(t *testing.T, pub *Publisher, nym string, attrs map[string]string) *Subscriber {
	t.Helper()
	_, mgr := testEnv(t)
	sub, err := NewSubscriber(nym)
	if err != nil {
		t.Fatal(err)
	}
	for tag, val := range attrs {
		tok, sec, err := mgr.IssueString(nym, tag, val)
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.AddToken(tok, sec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sub.RegisterAll(pub); err != nil {
		t.Fatal(err)
	}
	return sub
}

func newEHRPublisher(t *testing.T) *Publisher {
	t.Helper()
	params, mgr := testEnv(t)
	pub, err := NewPublisher(params, mgr.PublicKey(), ehrACPs(t), Options{Ell: 8})
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

func TestEndToEndEHRScenario(t *testing.T) {
	// Full reproduction of Example 4: a doctor, a qualified nurse, an
	// unqualified nurse (level 58) and a pharmacist receive exactly the
	// subdocuments their roles allow.
	pub := newEHRPublisher(t)
	doctor := newSub(t, pub, "pn-0012", map[string]string{"role": "doc"})
	nurseOK := newSub(t, pub, "pn-1492", map[string]string{"role": "nur", "level": "60"})
	nurseLow := newSub(t, pub, "pn-0829", map[string]string{"role": "nur", "level": "58"})
	pharm := newSub(t, pub, "pn-7777", map[string]string{"role": "pha"})

	b, err := pub.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}

	expect := map[*Subscriber][]string{
		doctor:   {"ContactInfo", "Medication", "PhysicalExams", "LabRecords", "Plan"},
		nurseOK:  {"ContactInfo", "Medication", "PhysicalExams", "LabRecords", "Plan"},
		nurseLow: {},
		pharm:    {"BillingInfo", "Medication"},
	}
	names := map[*Subscriber]string{doctor: "doctor", nurseOK: "nurseOK", nurseLow: "nurseLow", pharm: "pharm"}
	for sub, want := range expect {
		got, err := sub.Decrypt(b)
		if err != nil {
			t.Fatalf("%s: %v", names[sub], err)
		}
		if len(got) != len(want) {
			t.Errorf("%s: decrypted %d subdocs %v, want %v", names[sub], len(got), keysOf(got), want)
			continue
		}
		for _, w := range want {
			if _, ok := got[w]; !ok {
				t.Errorf("%s: missing %s", names[sub], w)
			}
		}
	}
	// Nobody can read "Other" (empty configuration).
	for sub := range expect {
		got, _ := sub.Decrypt(b)
		if _, ok := got["Other"]; ok {
			t.Errorf("%s decrypted the empty-config subdocument", names[sub])
		}
	}
}

func keysOf(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestDecryptedContentMatches(t *testing.T) {
	pub := newEHRPublisher(t)
	doctor := newSub(t, pub, "pn-1", map[string]string{"role": "doc"})
	doc := ehrDoc(t)
	b, err := pub.Publish(doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := doctor.Decrypt(b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := doc.Get("Medication")
	if !bytes.Equal(got["Medication"], want.Content) {
		t.Error("decrypted content differs from original")
	}
}

func TestPrivacyRegistrationIsUniform(t *testing.T) {
	// A subscriber registers for every condition matching its token tags —
	// even mutually exclusive ones — so the publisher's table alone cannot
	// reveal which condition is satisfied (Example 3).
	pub := newEHRPublisher(t)
	newSub(t, pub, "pn-x", map[string]string{"role": "doc"})
	row := pub.reg.rowCopy("pn-x")
	// Six role conditions exist; the row must contain a CSS for all six.
	roleConds := 0
	for _, c := range pub.Conditions() {
		if c.Attr == "role" {
			roleConds++
		}
	}
	if roleConds != 6 {
		t.Fatalf("expected 6 role conditions, got %d", roleConds)
	}
	if len(row) != roleConds {
		t.Errorf("publisher row has %d CSSs, want %d (uniform registration)", len(row), roleConds)
	}
}

func TestRekeyOnRevocation(t *testing.T) {
	// Forward secrecy through the full stack: after revocation and a fresh
	// Publish, the revoked doctor can no longer decrypt, while others still
	// can — and no subscriber state changed.
	pub := newEHRPublisher(t)
	doc1 := newSub(t, pub, "pn-a", map[string]string{"role": "doc"})
	doc2 := newSub(t, pub, "pn-b", map[string]string{"role": "doc"})

	b1, err := pub.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := doc1.Decrypt(b1); len(got) == 0 {
		t.Fatal("doc1 cannot decrypt before revocation")
	}

	if err := pub.RevokeSubscription("pn-a"); err != nil {
		t.Fatal(err)
	}
	b2, err := pub.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := doc1.Decrypt(b2); len(got) != 0 {
		t.Errorf("revoked subscriber still decrypts %v", keysOf(got))
	}
	if got, _ := doc2.Decrypt(b2); len(got) != 5 {
		t.Errorf("remaining doctor lost access: %v", keysOf(got))
	}
	// Old broadcast still opens for the revoked doctor (revocation is not
	// retroactive) — and the new subscriber state was never touched.
	if got, _ := doc1.Decrypt(b1); len(got) != 5 {
		t.Error("old broadcast became unreadable")
	}
}

func TestCredentialRevocation(t *testing.T) {
	pub := newEHRPublisher(t)
	nurse := newSub(t, pub, "pn-n", map[string]string{"role": "nur", "level": "60"})
	b1, _ := pub.Publish(ehrDoc(t))
	if got, _ := nurse.Decrypt(b1); len(got) != 5 {
		t.Fatalf("nurse baseline wrong: %v", keysOf(got))
	}
	// Revoke only the level credential: acp4 requires both, so access drops.
	if err := pub.RevokeCredential("pn-n", "level >= 59"); err != nil {
		t.Fatal(err)
	}
	b2, _ := pub.Publish(ehrDoc(t))
	if got, _ := nurse.Decrypt(b2); len(got) != 0 {
		t.Errorf("nurse still decrypts after credential revocation: %v", keysOf(got))
	}
}

func TestBackwardSecrecyOnJoin(t *testing.T) {
	pub := newEHRPublisher(t)
	b0, err := pub.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	late := newSub(t, pub, "pn-late", map[string]string{"role": "doc"})
	// The late joiner cannot decrypt the earlier broadcast...
	if got, _ := late.Decrypt(b0); len(got) != 0 {
		t.Errorf("late joiner decrypted old broadcast: %v", keysOf(got))
	}
	// ...but decrypts the next one.
	b1, err := pub.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := late.Decrypt(b1); len(got) != 5 {
		t.Errorf("late joiner cannot decrypt new broadcast: %v", keysOf(got))
	}
}

func TestCredentialUpdateByReregistration(t *testing.T) {
	// A nurse promoted from level 58 to 60 re-registers with a new token;
	// the publisher overwrites the CSS cells and access appears.
	params, mgr := testEnv(t)
	_ = params
	pub := newEHRPublisher(t)
	nurse := newSub(t, pub, "pn-up", map[string]string{"role": "nur", "level": "58"})
	b1, _ := pub.Publish(ehrDoc(t))
	if got, _ := nurse.Decrypt(b1); len(got) != 0 {
		t.Fatal("level-58 nurse should see nothing")
	}
	tok, sec, err := mgr.IssueString("pn-up", "level", "60")
	if err != nil {
		t.Fatal(err)
	}
	if err := nurse.AddToken(tok, sec); err != nil {
		t.Fatal(err)
	}
	if _, err := nurse.RegisterAll(pub); err != nil {
		t.Fatal(err)
	}
	b2, _ := pub.Publish(ehrDoc(t))
	if got, _ := nurse.Decrypt(b2); len(got) != 5 {
		t.Errorf("promoted nurse cannot decrypt: %v", keysOf(got))
	}
}

func TestPublisherValidation(t *testing.T) {
	params, mgr := testEnv(t)
	if _, err := NewPublisher(nil, mgr.PublicKey(), ehrACPs(t), Options{}); err == nil {
		t.Error("nil params accepted")
	}
	if _, err := NewPublisher(params, mgr.PublicKey(), nil, Options{}); err == nil {
		t.Error("no policies accepted")
	}
	if _, err := NewPublisher(params, mgr.PublicKey(), ehrACPs(t), Options{Ell: -1}); err == nil {
		t.Error("negative ell accepted")
	}
}

// registerOne registers req as a batch of one and returns the item's
// refusal ("" when it got an envelope).
func registerOne(t *testing.T, pub *Publisher, req *RegistrationRequest) string {
	t.Helper()
	results, err := pub.RegisterBatch([]*RegistrationRequest{req})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == "" && results[0].Envelope == nil {
		t.Fatal("item neither refused nor answered")
	}
	return results[0].Err
}

func TestRegisterValidation(t *testing.T) {
	pub := newEHRPublisher(t)
	_, mgr := testEnv(t)
	if registerOne(t, pub, nil) == "" {
		t.Error("nil request accepted")
	}
	tok, _, err := mgr.IssueString("pn-v", "role", "doc")
	if err != nil {
		t.Fatal(err)
	}
	if registerOne(t, pub, &RegistrationRequest{Token: tok, CondID: "nonexistent = 1", OCBE: nil}) == "" {
		t.Error("incomplete request accepted")
	}
	// Tag mismatch: role token against level condition.
	if got := registerOne(t, pub, &RegistrationRequest{Token: tok, CondID: "level >= 59", OCBE: &ocbe.Request{}}); got != ErrTagMismatch.Error() {
		t.Errorf("expected ErrTagMismatch, got %q", got)
	}
	if got := registerOne(t, pub, &RegistrationRequest{Token: tok, CondID: "ghost = 1", OCBE: &ocbe.Request{}}); got != ErrUnknownCondition.Error() {
		t.Errorf("expected ErrUnknownCondition, got %q", got)
	}
}

func TestRevocationValidation(t *testing.T) {
	pub := newEHRPublisher(t)
	if err := pub.RevokeSubscription("ghost"); err == nil {
		t.Error("revoking unknown nym accepted")
	}
	if err := pub.RevokeCredential("ghost", "role = doc"); err == nil {
		t.Error("revoking unknown credential accepted")
	}
	newSub(t, pub, "pn-r", map[string]string{"role": "doc"})
	if err := pub.RevokeCredential("pn-r", "level >= 59"); err == nil {
		t.Error("revoking absent CSS accepted")
	}
	if pub.SubscriberCount() != 1 {
		t.Error("SubscriberCount wrong")
	}
}

func TestSubscriberValidation(t *testing.T) {
	if _, err := NewSubscriber(""); err == nil {
		t.Error("empty nym accepted")
	}
	sub, _ := NewSubscriber("pn-1")
	if err := sub.AddToken(nil, nil); err == nil {
		t.Error("nil token accepted")
	}
	_, mgr := testEnv(t)
	tok, sec, _ := mgr.IssueString("pn-other", "role", "doc")
	if err := sub.AddToken(tok, sec); err == nil {
		t.Error("mismatched nym accepted")
	}
	if _, err := sub.Decrypt(nil); err == nil {
		t.Error("nil broadcast accepted")
	}
}

func TestPublishValidation(t *testing.T) {
	pub := newEHRPublisher(t)
	if _, err := pub.Publish(nil); err == nil {
		t.Error("nil document accepted")
	}
}

func TestMinNHeadroom(t *testing.T) {
	// With MinN set, headers are padded to the requested capacity.
	params, mgr := testEnv(t)
	pub, err := NewPublisher(params, mgr.PublicKey(), ehrACPs(t), Options{Ell: 8, MinN: 10})
	if err != nil {
		t.Fatal(err)
	}
	doctor, err := NewSubscriber("pn-d")
	if err != nil {
		t.Fatal(err)
	}
	tok, sec, _ := mgr.IssueString("pn-d", "role", "doc")
	doctor.AddToken(tok, sec)
	if _, err := doctor.RegisterAll(pub); err != nil {
		t.Fatal(err)
	}
	b, err := pub.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, ci := range b.Configs {
		if ci.Header != nil && ci.Header.N() != 10 {
			t.Errorf("config %q: N = %d, want 10", ci.Key, ci.Header.N())
		}
	}
	if got, _ := doctor.Decrypt(b); len(got) != 5 {
		t.Errorf("doctor cannot decrypt with padded N: %v", keysOf(got))
	}
}

func TestHasCSSAndCounts(t *testing.T) {
	pub := newEHRPublisher(t)
	doctor := newSub(t, pub, "pn-c", map[string]string{"role": "doc"})
	if !doctor.HasCSS("role = doc") {
		t.Error("doctor missing satisfied CSS")
	}
	if doctor.HasCSS("role = nur") {
		t.Error("doctor extracted CSS for unsatisfied condition")
	}
	if doctor.CSSCount() != 1 {
		t.Errorf("CSSCount = %d, want 1", doctor.CSSCount())
	}
	if doctor.Nym() != "pn-c" {
		t.Error("Nym wrong")
	}
}
