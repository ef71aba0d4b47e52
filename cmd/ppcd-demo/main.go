// Command ppcd-demo walks through the paper's three phases on the EHR
// scenario, printing the protocol internals at each step: identity token
// issuance (Pedersen commitments), oblivious CSS delivery (table T shape),
// and ACV-based broadcast (matrix dimensions, header sizes, key
// derivations).
//
// Usage:
//
//	ppcd-demo
//
// It takes no flags: commitments live in the paper's genus-2 Jacobian
// (ppcd.PaperCurve).
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"ppcd"
)

func main() {
	log.SetFlags(0)
	flag.Parse()

	grp := ppcd.PaperCurve()
	fmt.Printf("══ setup ══\ncommitment group: %s (order %d bits)\n", grp.Name(), grp.Order().BitLen())

	params, err := ppcd.Setup(grp, []byte("ppcd-demo"))
	check(err)
	idmgr, err := ppcd.NewIdentityManager(params)
	check(err)
	fmt.Println("IdMgr: Pedersen parameters ⟨G, g, h⟩ published; signing key generated")

	fmt.Println("\n══ phase 1: identity token issuance ══")
	tok, sec, err := idmgr.IssueString("pn-1492", "level", "60")
	check(err)
	fmt.Printf("token for pn-1492: tag=%q commitment=%x… sig=%x…\n", tok.Tag, tok.Commitment[:8], tok.Sig[:8])
	fmt.Printf("private opening kept by the Sub: x=%s (the level), r=%s…\n", sec.Value, sec.Blinding.String()[:12])

	fmt.Println("\n══ phase 2: registration (oblivious CSS delivery) ══")
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
	var acps []*ppcd.Policy
	for _, s := range specs {
		a, err := ppcd.NewPolicy(s.id, s.cond, "EHR.xml", s.objs...)
		check(err)
		acps = append(acps, a)
		fmt.Printf("  %s = %s\n", s.id, a)
	}
	pub, err := ppcd.NewPublisher(params, idmgr.PublicKey(), acps, ppcd.Options{Ell: 8})
	check(err)
	fmt.Printf("publisher conditions (columns of table T): %d\n", len(pub.Conditions()))

	staff := []struct {
		nym   string
		attrs map[string]string
	}{
		{"pn-0012", map[string]string{"role": "doc"}},
		{"pn-1492", map[string]string{"role": "nur", "level": "60"}},
		{"pn-0829", map[string]string{"role": "nur", "level": "58"}},
	}
	subs := map[string]*ppcd.Subscriber{}
	for _, st := range staff {
		s, err := ppcd.NewSubscriber(st.nym)
		check(err)
		for tag, val := range st.attrs {
			tk, sc, err := idmgr.IssueString(st.nym, tag, val)
			check(err)
			check(s.AddToken(tk, sc))
		}
		n, err := s.RegisterAll(pub)
		check(err)
		fmt.Printf("  %s: ran OCBE for every matching condition; extracted %d CSS(s)\n", st.nym, n)
		fmt.Printf("      (the publisher recorded a CSS for each run and cannot tell which opened)\n")
		subs[st.nym] = s
	}

	fmt.Println("\n══ phase 3: document dissemination (ACV group key management) ══")
	doc, err := ppcd.NewDocument("EHR.xml",
		ppcd.Subdocument{Name: "ContactInfo", Content: []byte("<ContactInfo>…</ContactInfo>")},
		ppcd.Subdocument{Name: "BillingInfo", Content: []byte("<BillingInfo>…</BillingInfo>")},
		ppcd.Subdocument{Name: "Medication", Content: []byte("<Medication>…</Medication>")},
		ppcd.Subdocument{Name: "PhysicalExams", Content: []byte("<PhysicalExams>…</PhysicalExams>")},
		ppcd.Subdocument{Name: "LabRecords", Content: []byte("<LabRecords>…</LabRecords>")},
		ppcd.Subdocument{Name: "Plan", Content: []byte("<Plan>…</Plan>")},
	)
	check(err)
	b, err := pub.Publish(doc)
	check(err)
	fmt.Printf("broadcast: %d policy configurations, %d encrypted items\n", len(b.Configs), len(b.Items))
	for _, ci := range b.Configs {
		if ci.Header == nil {
			fmt.Printf("  config {%s}: no qualified subscriber → no header\n", ci.Key)
			continue
		}
		fmt.Printf("  config {%s}: N=%d, header %d bytes (X + nonces z₁…z_N)\n",
			ci.Key, ci.Header.N(), ci.Header.Size())
	}

	fmt.Println("\nkey derivation at the subscribers (local, no interaction):")
	for _, st := range staff {
		got, err := subs[st.nym].Decrypt(b)
		check(err)
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("  %s → %v\n", st.nym, names)
	}

	fmt.Println("\n══ rekey: revoke pn-0012, publish again ══")
	check(pub.RevokeSubscription("pn-0012"))
	b2, err := pub.Publish(doc)
	check(err)
	for _, nym := range []string{"pn-0012", "pn-1492"} {
		got, err := subs[nym].Decrypt(b2)
		check(err)
		fmt.Printf("  %s decrypts %d subdocuments (no message was sent to anyone)\n", nym, len(got))
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
