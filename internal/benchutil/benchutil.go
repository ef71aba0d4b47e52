// Package benchutil builds synthetic publisher workloads for the publish
// benchmarks (bench_test.go) and the ppcd-bench harness: a set of
// single-condition policies, the matching document, and the rows of a CSS
// table that Load registers through the publisher's replication-event path,
// so no OCBE exchanges run.
package benchutil

import (
	"fmt"

	"ppcd/internal/core"
	"ppcd/internal/document"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
)

// Row is one synthetic table row: a pseudonym and its CSS cells by
// condition ID.
type Row struct {
	Nym   string
	Cells map[string]core.CSS
}

// Workload returns `policies` single-condition ACPs ("attrI >= 1", one
// subdocument "sdI" of subdocBytes each), a document covering all of them,
// and `subs` rows "pn-0", "pn-1", …. The first `partial` pseudonyms hold a
// CSS only for attr0 — they qualify for a single policy, so revoking one
// dirties exactly one configuration; the rest hold every condition, as
// uniform registration produces.
func Workload(subs, policies, partial, subdocBytes int) ([]*policy.ACP, *document.Document, []Row, error) {
	if subs < 1 || policies < 1 || partial > subs {
		return nil, nil, nil, fmt.Errorf("benchutil: bad workload shape subs=%d policies=%d partial=%d", subs, policies, partial)
	}
	var acps []*policy.ACP
	var subdocs []document.Subdocument
	for i := 0; i < policies; i++ {
		acp, err := policy.New(fmt.Sprintf("acp%d", i), fmt.Sprintf("attr%d >= 1", i), "doc", fmt.Sprintf("sd%d", i))
		if err != nil {
			return nil, nil, nil, err
		}
		acps = append(acps, acp)
		subdocs = append(subdocs, document.Subdocument{Name: fmt.Sprintf("sd%d", i), Content: make([]byte, subdocBytes)})
	}
	doc, err := document.New("doc", subdocs...)
	if err != nil {
		return nil, nil, nil, err
	}

	rows := make([]Row, subs)
	rng := uint64(0x9e3779b97f4a7c15)
	for i := range rows {
		width := policies
		if i < partial {
			width = 1
		}
		cells := make(map[string]core.CSS, width)
		for j := 0; j < width; j++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			cells[fmt.Sprintf("attr%d >= 1", j)] = core.CSS(rng%1000000007 + 1)
		}
		rows[i] = Row{Nym: fmt.Sprintf("pn-%d", i), Cells: cells}
	}
	return acps, doc, rows, nil
}

// Load applies one register event per row to pub (ApplyStateEvent, the
// replication path WAL replay takes). Loading the same rows again restores
// rows revoked since and bumps no membership version of a row that is
// unchanged, so a re-load after churn re-solves only what the churn touched.
// Nothing is journaled: a publisher with a durable store snapshots after a
// load to make the table durable.
func Load(pub *pubsub.Publisher, rows []Row) error {
	for _, r := range rows {
		if err := pub.ApplyStateEvent(pubsub.StateEvent{Kind: pubsub.StateEventRegister, Nym: r.Nym, Cells: r.Cells}); err != nil {
			return err
		}
	}
	return nil
}
