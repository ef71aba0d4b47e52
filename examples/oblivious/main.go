// Oblivious: a focused demonstration of the OCBE building block (§IV-C) —
// proving "age >= 18" without revealing the age. A bar (the sender) wraps a
// wristband code in a GE-OCBE envelope against a patron's committed age; the
// patron opens it iff of age. The bar's view is byte-for-byte identical in
// shape for a 17-year-old and a 30-year-old.
package main

import (
	"fmt"
	"log"
	"math/big"

	"ppcd"
	"ppcd/internal/ocbe"
	"ppcd/internal/pedersen"
)

func main() {
	log.SetFlags(0)

	params, err := pedersen.Setup(ppcd.PaperCurve(), []byte("oblivious-demo"))
	check(err)

	const ell = 8 // ages fit in 8 bits
	pred := ocbe.Predicate{Op: ocbe.GE, X0: big.NewInt(18)}
	wristband := []byte("WRISTBAND-7731")

	for _, age := range []int64{30, 17} {
		fmt.Printf("patron with (hidden) age %d:\n", age)

		// Identity phase: the patron holds a commitment to its age. In the
		// full system the IdMgr signs this; here we focus on OCBE itself.
		x := big.NewInt(age)
		c, r, err := params.CommitRandom(x)
		check(err)
		_ = c

		recv := ocbe.NewReceiver(params, x, r)
		wit, req, err := recv.Prepare(pred, ell)
		check(err)
		fmt.Printf("  patron → bar: commitment + %d bit commitments (same for any age)\n", len(req.Bits[0].Cs))

		// The bar composes the envelope. It verifies the bit commitments
		// recombine to the registered commitment and otherwise learns
		// nothing — it cannot even tell afterwards whether the open worked.
		env, err := ocbe.Compose(params, pred, ell, req, wristband)
		check(err)
		fmt.Printf("  bar → patron: envelope with %d pad pairs + ciphertext\n", len(env.Bits))

		got, err := recv.Open(env, wit)
		if err != nil {
			fmt.Printf("  patron: cannot open envelope (%v)\n\n", err)
			continue
		}
		fmt.Printf("  patron: opened envelope, got %q\n\n", got)
	}

	fmt.Println("the bar executed identical steps both times — it never learned an age,")
	fmt.Println("nor whether an envelope was successfully opened.")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
