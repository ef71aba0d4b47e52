// Quickstart: the smallest end-to-end use of the ppcd public API — one
// policy, two subscribers, one broadcast. Alice (age 30) can read the body;
// Bob (age 15) cannot, and the publisher never learns either age.
package main

import (
	"fmt"
	"log"

	"ppcd"
)

func main() {
	log.SetFlags(0)

	// System setup: Pedersen parameters over the paper's genus-2 Jacobian,
	// published once.
	params, err := ppcd.Setup(ppcd.PaperCurve(), []byte("quickstart"))
	check(err)
	idmgr, err := ppcd.NewIdentityManager(params)
	check(err)

	// The publisher enforces one policy: adults may read the body.
	acp, err := ppcd.NewPolicy("adults", "age >= 18", "news", "body")
	check(err)
	pub, err := ppcd.NewPublisher(params, idmgr.PublicKey(), []*ppcd.Policy{acp}, ppcd.Options{Ell: 8})
	check(err)

	// Subscribers obtain identity tokens (committed attribute values) and
	// register. Registration is oblivious: the publisher runs the same steps
	// for Alice and Bob and cannot tell who satisfied the condition.
	alice := subscriber(idmgr, pub, "pn-alice", "age", "30")
	bob := subscriber(idmgr, pub, "pn-bob", "age", "15")

	// Broadcast a document.
	doc, err := ppcd.NewDocument("news",
		ppcd.Subdocument{Name: "headline", Content: []byte("<h1>Weather: sunny</h1>")},
		ppcd.Subdocument{Name: "body", Content: []byte("adults-only analysis…")},
	)
	check(err)
	b, err := pub.Publish(doc)
	check(err)

	for _, s := range []*ppcd.Subscriber{alice, bob} {
		got, err := s.Decrypt(b)
		check(err)
		fmt.Printf("%s decrypted %d subdocument(s):\n", s.Nym(), len(got))
		for name, content := range got {
			fmt.Printf("  %s: %s\n", name, content)
		}
	}
	// Note: "headline" has no policy, so nobody can read it; a real
	// deployment would attach a public policy or send it in clear.
}

func subscriber(idmgr *ppcd.IdentityManager, pub *ppcd.Publisher, nym, tag, value string) *ppcd.Subscriber {
	s, err := ppcd.NewSubscriber(nym)
	check(err)
	tok, sec, err := idmgr.IssueString(nym, tag, value)
	check(err)
	check(s.AddToken(tok, sec))
	n, err := s.RegisterAll(pub)
	check(err)
	fmt.Printf("%s registered (extracted %d CSS(s) — the publisher doesn't know how many)\n", nym, n)
	return s
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
