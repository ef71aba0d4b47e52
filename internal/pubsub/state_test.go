package pubsub

import (
	"testing"

	"ppcd/internal/policy"
)

func TestExportImportRoundTrip(t *testing.T) {
	pub := newEHRPublisher(t)
	doctor := newSub(t, pub, "pn-st1", map[string]string{"role": "doc"})
	nurse := newSub(t, pub, "pn-st2", map[string]string{"role": "nur", "level": "60"})

	// A freshly constructed publisher with the same policies resumes from
	// the exported segments: existing subscribers keep decrypting without
	// re-registration.
	params, mgr := testEnv(t)
	pub2, err := NewPublisher(params, mgr.PublicKey(), ehrACPs(t), Options{Ell: 8})
	if err != nil {
		t.Fatal(err)
	}
	restart(t, pub, pub2)
	if pub2.SubscriberCount() != 2 {
		t.Fatalf("restored %d subscribers, want 2", pub2.SubscriberCount())
	}
	b, err := pub2.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := doctor.Decrypt(b); len(got) != 5 {
		t.Errorf("doctor decrypts %d after restore", len(got))
	}
	if got, _ := nurse.Decrypt(b); len(got) != 5 {
		t.Errorf("nurse decrypts %d after restore", len(got))
	}
}

func TestImportDropsStaleConditions(t *testing.T) {
	pub := newEHRPublisher(t)
	newSub(t, pub, "pn-st3", map[string]string{"role": "doc", "level": "60"})

	// New publisher with a REDUCED policy set: level conditions vanish.
	params, mgr := testEnv(t)
	onlyDoc, err := policy.New("acp3", "role = doc", "EHR.xml", "Plan")
	if err != nil {
		t.Fatal(err)
	}
	pub2, err := NewPublisher(params, mgr.PublicKey(), []*policy.ACP{onlyDoc}, Options{Ell: 8})
	if err != nil {
		t.Fatal(err)
	}
	restart(t, pub, pub2)
	row := pub2.reg.rowCopy("pn-st3")
	if len(row) == 0 {
		t.Fatal("the row lost every cell")
	}
	for cond := range row {
		if cond != "role = doc" {
			t.Errorf("stale condition %q survived import", cond)
		}
	}
}

func TestSubscriberCSSExportImport(t *testing.T) {
	pub := newEHRPublisher(t)
	doctor := newSub(t, pub, "pn-css", map[string]string{"role": "doc"})
	state, err := doctor.ExportCSS()
	if err != nil {
		t.Fatal(err)
	}

	// A fresh process restores the CSS set and decrypts without
	// re-registering (which would have rotated the publisher-side CSSs).
	restored, err := NewSubscriber("pn-css")
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ImportCSS(state); err != nil {
		t.Fatal(err)
	}
	if restored.CSSCount() != doctor.CSSCount() {
		t.Fatalf("restored %d CSSs, want %d", restored.CSSCount(), doctor.CSSCount())
	}
	b, err := pub.Publish(ehrDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := restored.Decrypt(b); len(got) != 5 {
		t.Errorf("restored subscriber decrypts %d subdocs", len(got))
	}
}

func TestSubscriberImportCSSValidation(t *testing.T) {
	sub, err := NewSubscriber("pn-v")
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.ImportCSS([]byte("junk")); err == nil {
		t.Error("garbage accepted")
	}
	if err := sub.ImportCSS([]byte(`{"version":2,"nym":"pn-v","css":{}}`)); err == nil {
		t.Error("future version accepted")
	}
	if err := sub.ImportCSS([]byte(`{"version":1,"nym":"other","css":{}}`)); err == nil {
		t.Error("foreign nym accepted")
	}
	if err := sub.ImportCSS([]byte(`{"version":1,"nym":"pn-v","css":{"c":0}}`)); err == nil {
		t.Error("zero CSS accepted")
	}
}
