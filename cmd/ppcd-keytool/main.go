// Command ppcd-keytool inspects the cryptographic building blocks:
//
//	ppcd-keytool curve-info                 # paper curve parameters + self-check
//	ppcd-keytool commit -value 28           # produce a Pedersen commitment
//	ppcd-keytool verify -value 28 -blinding <r> -commitment <hex>
//	ppcd-keytool encode -value nurse        # attribute value → field element
//
// Commitments live in the paper's genus-2 Jacobian (ppcd.PaperCurve); -seed
// picks the Pedersen parameters and must match the system's.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"math/big"
	"os"

	"ppcd"
	"ppcd/internal/g2"
	"ppcd/internal/idtoken"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppcd-keytool: ")
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]

	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	value := fs.String("value", "", "attribute value (decimal integer or string)")
	blinding := fs.String("blinding", "", "blinding factor r (decimal)")
	commitment := fs.String("commitment", "", "commitment (hex)")
	seed := fs.String("seed", "ppcd-keytool", "parameter derivation seed")
	if err := fs.Parse(args); err != nil {
		log.Fatal(err)
	}

	grp := ppcd.PaperCurve()
	switch cmd {
	case "curve-info":
		curveInfo()
	case "commit":
		params := setup(grp, *seed)
		if *value == "" {
			log.Fatal("commit requires -value")
		}
		x := idtoken.EncodeValue(params.Order(), *value)
		c, r, err := params.CommitRandom(x)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("group:      %s\n", grp.Name())
		fmt.Printf("encoded x:  %s\n", x)
		fmt.Printf("blinding r: %s\n", r)
		fmt.Printf("commitment: %s\n", hex.EncodeToString(params.G.Marshal(c)))
	case "verify":
		params := setup(grp, *seed)
		if *value == "" || *blinding == "" || *commitment == "" {
			log.Fatal("verify requires -value, -blinding and -commitment")
		}
		x := idtoken.EncodeValue(params.Order(), *value)
		r, ok := new(big.Int).SetString(*blinding, 10)
		if !ok {
			log.Fatal("bad blinding")
		}
		raw, err := hex.DecodeString(*commitment)
		if err != nil {
			log.Fatalf("bad commitment hex: %v", err)
		}
		c, err := params.G.Unmarshal(raw)
		if err != nil {
			log.Fatalf("commitment not a group element: %v", err)
		}
		if params.Verify(c, x, r) {
			fmt.Println("commitment opens correctly ✓")
		} else {
			fmt.Println("commitment does NOT open ✗")
			os.Exit(1)
		}
	case "encode":
		params := setup(grp, *seed)
		if *value == "" {
			log.Fatal("encode requires -value")
		}
		fmt.Printf("%s → %s (numeric: %v)\n", *value,
			idtoken.EncodeValue(params.Order(), *value), idtoken.IsNumeric(*value))
	default:
		usage()
	}
}

func setup(grp ppcd.Group, seed string) *ppcd.CommitmentParams {
	params, err := ppcd.Setup(grp, []byte(seed))
	if err != nil {
		log.Fatal(err)
	}
	return params
}

func curveInfo() {
	c := g2.MustPaperCurve()
	fmt.Println("genus-2 curve from the paper (Gaudry–Schost 2004):")
	fmt.Printf("  base field:  F_q, q = %s (%d bits)\n", c.Modulus(), c.Modulus().BitLen())
	fmt.Printf("  jacobian order p = %s (%d bits, prime)\n", c.Order(), c.Order().BitLen())
	fmt.Printf("  generator:   %s\n", c.Generator())
	gp := c.Exp(c.Generator(), c.Order())
	fmt.Printf("  self-check g^p == identity: %v\n", c.IsIdentity(gp))
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ppcd-keytool <curve-info|commit|verify|encode> [-value v] [-blinding r] [-commitment hex] [-seed s]")
	os.Exit(2)
}
