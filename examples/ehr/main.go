// EHR: the paper's running healthcare example (§V-C2, Example 4). A
// hospital data center broadcasts an electronic health record XML file; six
// role-based policies carve it into policy configurations, and each employee
// decrypts exactly the elements their role (and level) allows — without ever
// revealing role or level to the data center.
package main

import (
	"fmt"
	"log"
	"sort"

	"ppcd"
)

const ehrXML = `<PatientRecord>
  <ContactInfo><Name>Jane Roe</Name><Phone>555-0101</Phone></ContactInfo>
  <BillingInfo><Insurer>Acme Health</Insurer><Account>99-1234</Account></BillingInfo>
  <ClinicalRecord>
    <Medication>lisinopril 10mg daily</Medication>
    <PhysicalExams>BP 118/76, HR 64</PhysicalExams>
    <LabRecords>CBC normal; X-ray clear</LabRecords>
    <Plan>reduce sodium; follow-up 6 weeks</Plan>
  </ClinicalRecord>
</PatientRecord>`

func main() {
	log.SetFlags(0)

	params, err := ppcd.Setup(ppcd.PaperCurve(), []byte("ehr-demo"))
	check(err)
	idmgr, err := ppcd.NewIdentityManager(params)
	check(err)

	// The six policies of Example 4.
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
	}

	pub, err := ppcd.NewPublisher(params, idmgr.PublicKey(), acps, ppcd.Options{Ell: 8})
	check(err)

	// Hospital staff. Note the level-58 nurse: she holds a valid "nur" role
	// token but does not meet acp4's level requirement.
	staff := []struct {
		nym   string
		attrs map[string]string
	}{
		{"pn-0012", map[string]string{"role": "doc"}},
		{"pn-1492", map[string]string{"role": "nur", "level": "60"}},
		{"pn-0829", map[string]string{"role": "nur", "level": "58"}},
		{"pn-3301", map[string]string{"role": "pha"}},
		{"pn-5150", map[string]string{"role": "rec"}},
	}
	subs := make(map[string]*ppcd.Subscriber)
	for _, st := range staff {
		s, err := ppcd.NewSubscriber(st.nym)
		check(err)
		for tag, val := range st.attrs {
			tok, sec, err := idmgr.IssueString(st.nym, tag, val)
			check(err)
			check(s.AddToken(tok, sec))
		}
		_, err = s.RegisterAll(pub)
		check(err)
		subs[st.nym] = s
	}

	// Segment the XML by the policy-relevant elements and broadcast.
	doc, err := ppcd.SplitXML("EHR.xml", []byte(ehrXML),
		[]string{"ContactInfo", "BillingInfo", "Medication", "PhysicalExams", "LabRecords", "Plan"})
	check(err)
	fmt.Printf("EHR.xml segmented into %d subdocuments: %v\n\n", len(doc.Subdocs), doc.Names())

	b, err := pub.Publish(doc)
	check(err)

	roleOf := map[string]string{
		"pn-0012": "doctor", "pn-1492": "nurse (level 60)", "pn-0829": "nurse (level 58)",
		"pn-3301": "pharmacist", "pn-5150": "receptionist",
	}
	for _, st := range staff {
		got, err := subs[st.nym].Decrypt(b)
		check(err)
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("%-18s %s → %v\n", st.nym, roleOf[st.nym], names)
	}

	// Revoke the doctor and rebroadcast: nothing is sent to any subscriber,
	// yet the doctor's access is gone.
	fmt.Println("\nrevoking pn-0012 and rebroadcasting (pure rekey, no unicast)…")
	check(pub.RevokeSubscription("pn-0012"))
	b2, err := pub.Publish(doc)
	check(err)
	for _, nym := range []string{"pn-0012", "pn-1492"} {
		got, err := subs[nym].Decrypt(b2)
		check(err)
		fmt.Printf("%-18s now decrypts %d subdocument(s)\n", nym, len(got))
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
