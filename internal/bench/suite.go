package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// ExperimentIDs returns the experiments an -exp value names: one id of
// 1-7, or all seven, in order, for "all".
func ExperimentIDs(exp string) ([]string, error) {
	all := []string{"1", "2", "3", "4", "5", "6", "7"}
	switch {
	case strings.EqualFold(exp, "all"):
		return all, nil
	case slices.Contains(all, exp):
		return []string{exp}, nil
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (want 1..7, or all)", exp)
}

// Suite is one reproduction of the paper's evaluation: what every
// experiment it runs shares, and the rows of Experiments 1 and 2, which
// Experiments 5 (Figure 16) and 6 (Figure 17) reuse, so that each distinct
// run is made once.
type Suite struct {
	Geometry Geometry
	Specs    []MethodSpec
	// NUpdates is N_updates_till_write for Experiments 3 and 4.
	NUpdates int
	// TPCC configures Experiment 7.
	TPCC Exp7Config

	exp1, exp2 []Row
}

// Check returns an error if an experiment of s cannot run: the geometry
// fails Geometry.Check, NUpdates is under 1, or the TPC-C scale is
// invalid.
func (s *Suite) Check() error {
	if err := s.Geometry.Check(); err != nil {
		return err
	}
	if s.NUpdates < 1 {
		return fmt.Errorf("bench: N_updates_till_write is %d, must be at least 1", s.NUpdates)
	}
	return s.TPCC.Scale.Validate()
}

// Run runs experiment id (reusing Experiment 1's or 2's rows if s has
// them) and prints its title and table to w.
func (s *Suite) Run(w io.Writer, id string) error {
	g, specs := s.Geometry, s.Specs
	var rows []Row
	var err error
	switch id {
	case "1", "5":
		if s.exp1 == nil {
			s.exp1, err = Exp1(g, specs)
		}
		rows = s.exp1
	case "2", "6":
		if s.exp2 == nil {
			s.exp2, err = Exp2(g, specs, nil)
		}
		rows = s.exp2
	case "3":
		rows, err = Exp3(g, specs, nil, s.NUpdates)
	case "4":
		rows, err = Exp4(g, specs, nil, s.NUpdates)
	case "7":
		rows, err = Exp7(g, specs, s.TPCC)
	default:
		return fmt.Errorf("bench: unknown experiment %q (want 1..7)", id)
	}
	if err != nil {
		return err
	}

	overall := func(r Row) float64 { return r.Overall }
	switch id {
	case "1":
		fmt.Fprintln(w, "Experiment 1 (Figure 12): time per update operation")
		fmt.Fprintf(w, "# geometry: %s, DB = %.0f%%, conditioning %.1f GC rounds/block\n",
			g.Params, g.DBFrac*100, g.GCRounds)
		WriteExp1Table(w, rows)
	case "2":
		fmt.Fprintln(w, "Experiment 2 (Figure 13): overall time per update operation vs N_updates_till_write")
		WriteSeriesTable(w, rows, "N", 2, overall)
	case "3":
		fmt.Fprintf(w, "Experiment 3 (Figure 14): overall time per update operation vs %%ChangedByOneU_Op (N=%d)\n", s.NUpdates)
		WriteSeriesTable(w, rows, "%changed", 2, overall)
	case "4":
		fmt.Fprintf(w, "Experiment 4 (Figure 15): overall time per operation vs %%UpdateOps (N=%d)\n", s.NUpdates)
		WriteSeriesTable(w, rows, "%updates", 2, overall)
	case "5":
		fmt.Fprintln(w, "Experiment 5 (Figure 16): overall time per update operation vs Tread, Twrite")
		for _, tw := range []int64{500, 1000} {
			fmt.Fprintf(w, "Twrite = %d us\n", tw)
			WriteSeriesTable(w, Exp5(g.Params, rows, nil, tw), "Tread", 2, overall)
			fmt.Fprintln(w)
		}
	case "6":
		fmt.Fprintln(w, "Experiment 6 (Figure 17): erase operations per update operation vs N_updates_till_write")
		WriteSeriesTable(w, rows, "N", 4, func(r Row) float64 { return r.ErasesPerOp })
	case "7":
		fmt.Fprintln(w, "Experiment 7 (Figure 18): TPC-C I/O time per transaction vs DBMS buffer size")
		WriteSeriesTable(w, rows, "buf %", 1, overall)
	}
	fmt.Fprintln(w)
	return nil
}
