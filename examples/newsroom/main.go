// Newsroom: tiered subscription content over a real TCP connection. A news
// service publishes stories with free / premium / enterprise tiers; clients
// register over the network (the server is a separate goroutine here, but
// the protocol is length-prefixed binary messages over TCP and works across
// machines). The
// example then walks through subscription churn: a premium reader joins
// mid-stream and an enterprise reader is revoked, each rekey being a single
// broadcast.
package main

import (
	"fmt"
	"log"

	"ppcd"
)

func main() {
	log.SetFlags(0)

	params, err := ppcd.Setup(ppcd.SchnorrGroup(), []byte("newsroom"))
	check(err)
	idmgr, err := ppcd.NewIdentityManager(params)
	check(err)

	// Tier model: tier >= 1 premium, tier >= 2 enterprise. Everyone
	// registered (tier >= 0) gets the daily brief.
	mk := func(id, cond string, objs ...string) *ppcd.Policy {
		p, err := ppcd.NewPolicy(id, cond, "daily", objs...)
		check(err)
		return p
	}
	acps := []*ppcd.Policy{
		mk("free", "tier >= 0", "brief"),
		mk("premium", "tier >= 1", "brief", "analysis"),
		mk("enterprise", "tier >= 2", "brief", "analysis", "dataset"),
	}
	pub, err := ppcd.NewPublisher(params, idmgr.PublicKey(), acps, ppcd.Options{Ell: 8})
	check(err)

	// Put the publisher on the wire.
	srv, err := ppcd.NewServer(pub)
	check(err)
	addr, err := srv.Listen("127.0.0.1:0")
	check(err)
	defer srv.Close()
	fmt.Printf("publisher listening on %s\n", addr)

	mkReader := func(nym, tier string) *ppcd.Subscriber {
		s, err := ppcd.NewSubscriber(nym)
		check(err)
		tok, sec, err := idmgr.IssueString(nym, "tier", tier)
		check(err)
		check(s.AddToken(tok, sec))
		client, err := ppcd.Dial(addr, params)
		check(err)
		defer client.Close()
		_, err = s.RegisterAll(client)
		check(err)
		return s
	}

	free := mkReader("pn-free", "0")
	enterprise := mkReader("pn-ent", "2")

	doc, err := ppcd.NewDocument("daily",
		ppcd.Subdocument{Name: "brief", Content: []byte("Markets steady.")},
		ppcd.Subdocument{Name: "analysis", Content: []byte("Deep dive: rates outlook…")},
		ppcd.Subdocument{Name: "dataset", Content: []byte("csv,raw,numbers")},
	)
	check(err)

	publish := func(tag string) *ppcd.Broadcast {
		b, err := pub.Publish(doc)
		check(err)
		check(srv.PublishBroadcast(b))
		fmt.Printf("\n-- published %q --\n", tag)
		return b
	}
	show := func(name string, s *ppcd.Subscriber, b *ppcd.Broadcast) {
		got, err := s.Decrypt(b)
		check(err)
		fmt.Printf("%-12s reads %d section(s)\n", name, len(got))
	}

	b1 := publish("monday edition")
	show("free", free, b1)
	show("enterprise", enterprise, b1)

	// A premium reader joins over the network; next publish rekeys.
	premium := mkReader("pn-prem", "1")
	b2 := publish("tuesday edition (premium reader joined)")
	show("free", free, b2)
	show("premium", premium, b2)
	show("enterprise", enterprise, b2)
	if got, _ := premium.Decrypt(b1); len(got) != 0 {
		log.Fatal("backward secrecy violated")
	}
	fmt.Println("premium reader cannot read monday edition (backward secrecy) ✓")

	// The enterprise subscription lapses.
	check(pub.RevokeSubscription("pn-ent"))
	b3 := publish("wednesday edition (enterprise revoked)")
	show("free", free, b3)
	show("premium", premium, b3)
	show("enterprise", enterprise, b3)
	if got, _ := enterprise.Decrypt(b3); len(got) != 0 {
		log.Fatal("forward secrecy violated")
	}
	fmt.Println("revoked enterprise reader shut out (forward secrecy) ✓")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
