// Command geoalign runs a crosswalk from plain CSV files, the way a
// practitioner would use the paper's method on published tables.
//
// Inputs:
//
//	-objective file.csv   two-column CSV (unit,value): the attribute to
//	                      realign, aggregated by source unit
//	-ref file.csv         three-column CSV (source,target,value): a
//	                      reference crosswalk file; repeatable
//	-method geoalign|dasymetric|areal
//	-out file.csv         output aggregate CSV by target unit ("-" = stdout)
//
// Example:
//
//	geoalign -objective steam_by_zip.csv \
//	         -ref population_xwalk.csv -ref accidents_xwalk.csv \
//	         -out steam_by_county.csv
//
// Subcommands:
//
//	geoalign snapshot build -out engine.snap -ref a.csv [-ref b.csv ...]
//	    precompute an engine from reference crosswalks and persist it
//	    as a snapshot that geoalignd (or OpenSnapshot) maps back at
//	    near-zero cold-start cost; solver caches are forced in
//	geoalign snapshot info engine.snap
//	    validate a snapshot (full checksum pass) and print its shape
//	geoalign delta apply -server URL -engine name -delta d.json
//	geoalign delta apply -snapshot in.snap -delta d.json -out out.snap
//	    apply an incremental crosswalk/source revision to a running
//	    geoalignd engine (live hot-swap) or to a snapshot offline;
//	    see delta.go for the delta JSON format
//	geoalign crosswalk build -src units_a -tgt units_b -out engine.snap \
//	    [-mem-budget 512MiB] [-tiles auto] [-csv xwalk.csv]
//	    stream two polygon shapefiles through the tiled out-of-core
//	    intersection join — memory bounded by -mem-budget, spilling
//	    tile buckets to disk as needed — and persist the resulting
//	    intersection-area engine snapshot; see crosswalk.go
//	geoalign catalog build -out catalog.idx -table name=agg.csv:zip ...
//	geoalign catalog search {-index catalog.idx | -server URL} -table name
//	geoalign catalog info {-index catalog.idx | -server URL}
//	    build, query, and describe the alignment catalog — the
//	    joinability index geoalignd serves on /v1/catalog/search; see
//	    catalog.go
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"geoalign"
	"geoalign/internal/cliflag"
	"geoalign/internal/core"
	"geoalign/internal/table"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "geoalign:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && args[0] == "snapshot" {
		return runSnapshot(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "delta" {
		return runDelta(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "crosswalk" {
		return runCrosswalk(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "catalog" {
		return runCatalog(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("geoalign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		objectivePath = fs.String("objective", "", "objective aggregate CSV (unit,value)")
		refPaths      cliflag.Repeated
		method        = fs.String("method", "geoalign", "geoalign | dasymetric | areal")
		outPath       = fs.String("out", "-", "output CSV path, - for stdout")
		showWeights   = fs.Bool("weights", false, "print learned reference weights to stderr")
		check         = fs.Bool("check", false, "warn on stderr about objective units a reference crosswalk does not cover")
	)
	fs.Var(&refPaths, "ref", "reference crosswalk CSV (source,target,value); repeatable")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *objectivePath == "" {
		return fmt.Errorf("missing -objective")
	}
	if len(refPaths) == 0 {
		return fmt.Errorf("at least one -ref crosswalk is required")
	}

	obj, err := readAggregate(*objectivePath)
	if err != nil {
		return fmt.Errorf("reading objective: %w", err)
	}

	xwalks := make([]*table.Crosswalk, 0, len(refPaths))
	for _, p := range refPaths {
		cw, err := readCrosswalk(p)
		if err != nil {
			return fmt.Errorf("reading reference %s: %w", p, err)
		}
		xwalks = append(xwalks, cw)
	}

	if *check {
		// Coverage check: a reference that has no mass for source units
		// the objective reports is suspect (§4.4.1's data-quality
		// concern); report units missing from each crosswalk.
		for k, cw := range xwalks {
			missing := 0
			for _, key := range obj.Keys {
				if cw.SourceIndex(key) < 0 {
					missing++
				}
			}
			if missing > 0 {
				fmt.Fprintf(stderr, "check: reference %s covers %d/%d objective units (%d missing)\n",
					refPaths[k], len(obj.Keys)-missing, len(obj.Keys), missing)
			}
		}
	}

	// Align every crosswalk to the objective's source-unit order and a
	// shared target-unit order (union in first-seen order from the first
	// crosswalk, then the rest).
	targetKeys := unionTargets(xwalks)
	refs := make([]core.Reference, len(xwalks))
	for k, cw := range xwalks {
		dm, err := cw.ReorderTo(obj.Keys, targetKeys)
		if err != nil {
			return fmt.Errorf("reference %s: %w", refPaths[k], err)
		}
		refs[k] = core.Reference{Name: cw.Attribute, DM: dm}
	}

	var estimate []float64
	switch *method {
	case "geoalign":
		res, err := core.Align(core.Problem{Objective: obj.Values, References: refs}, core.Options{})
		if err != nil {
			return err
		}
		estimate = res.Target
		if *showWeights {
			for k, r := range refs {
				fmt.Fprintf(stderr, "weight %-24s %.4f\n", r.Name, res.Weights[k])
			}
		}
	case "dasymetric":
		if len(refs) != 1 {
			return fmt.Errorf("dasymetric uses exactly one -ref, got %d", len(refs))
		}
		estimate, err = core.Dasymetric(obj.Values, refs[0])
		if err != nil {
			return err
		}
	case "areal":
		if len(refs) != 1 {
			return fmt.Errorf("areal uses exactly one -ref (the intersection areas), got %d", len(refs))
		}
		estimate, err = core.ArealWeighting(obj.Values, refs[0].DM)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -method %q", *method)
	}

	out, err := table.NewAggregate(obj.Attribute, targetKeys, estimate)
	if err != nil {
		return err
	}
	w := stdout
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return out.WriteCSV(w)
}

func readAggregate(path string) (*table.Aggregate, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return table.ReadAggregateCSV(f)
}

func readCrosswalk(path string) (*table.Crosswalk, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return table.ReadCrosswalkCSV(f)
}

// unionTargets merges target-unit keys across crosswalks in first-seen
// order so every reference can be reordered onto one column indexing.
func unionTargets(xwalks []*table.Crosswalk) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, cw := range xwalks {
		for _, k := range cw.TargetKeys {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return keys
}

func unionSources(xwalks []*table.Crosswalk) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, cw := range xwalks {
		for _, k := range cw.SourceKeys {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return keys
}

func runSnapshot(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: geoalign snapshot build|info|gc ...")
	}
	switch args[0] {
	case "build":
		return runSnapshotBuild(args[1:], stderr)
	case "info":
		return runSnapshotInfo(args[1:], stdout, stderr)
	case "gc":
		return runSnapshotGC(args[1:], stdout, stderr)
	default:
		return fmt.Errorf("unknown snapshot subcommand %q (want build, info, or gc)", args[0])
	}
}

// runSnapshotBuild precomputes an engine from reference crosswalks and
// persists it. The source-unit order is the first-seen union across the
// crosswalk files (stored in the snapshot metadata, so loaders know the
// objective layout); solver caches are forced so snapshot-loaded
// engines never recompute them.
func runSnapshotBuild(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("geoalign snapshot build", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var refPaths cliflag.Repeated
	outPath := fs.String("out", "", "output snapshot path (required)")
	fs.Var(&refPaths, "ref", "reference crosswalk CSV (source,target,value); repeatable")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("missing -out")
	}
	if len(refPaths) == 0 {
		return fmt.Errorf("at least one -ref crosswalk is required")
	}

	xwalks := make([]*table.Crosswalk, 0, len(refPaths))
	for _, p := range refPaths {
		cw, err := readCrosswalk(p)
		if err != nil {
			return fmt.Errorf("reading reference %s: %w", p, err)
		}
		xwalks = append(xwalks, cw)
	}
	srcKeys, tgtKeys := unionSources(xwalks), unionTargets(xwalks)
	refs := make([]geoalign.Reference, len(xwalks))
	for k, cw := range xwalks {
		dm, err := cw.ReorderTo(srcKeys, tgtKeys)
		if err != nil {
			return fmt.Errorf("reference %s: %w", refPaths[k], err)
		}
		xw := geoalign.NewCrosswalk(dm.Rows, dm.Cols)
		for i := 0; i < dm.Rows; i++ {
			cols, vals := dm.Row(i)
			for t, j := range cols {
				if err := xw.Add(i, j, vals[t]); err != nil {
					return err
				}
			}
		}
		refs[k] = geoalign.Reference{Name: cw.Attribute, Crosswalk: xw}
	}
	al, err := geoalign.NewAligner(refs, nil)
	if err != nil {
		return err
	}
	meta := &geoalign.SnapshotMeta{SourceKeys: srcKeys, TargetKeys: tgtKeys}
	if err := al.WriteSnapshot(*outPath, meta); err != nil {
		return err
	}
	st, err := os.Stat(*outPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "snapshot build: %s: %d sources -> %d targets, %d references, %d bytes\n",
		*outPath, al.SourceUnits(), al.TargetUnits(), al.References(), st.Size())
	return nil
}

// runSnapshotInfo maps a snapshot — which runs the full checksum and
// structural validation pass — and prints its shape.
func runSnapshotInfo(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("geoalign snapshot info", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: geoalign snapshot info engine.snap")
	}
	path := fs.Arg(0)
	al, meta, err := geoalign.OpenSnapshot(path, &geoalign.AlignerOptions{Workers: 1})
	if err != nil {
		return err
	}
	defer al.Close()
	st := al.Stats()
	fmt.Fprintf(stdout, "path:             %s\n", path)
	fmt.Fprintf(stdout, "source units:     %d\n", al.SourceUnits())
	fmt.Fprintf(stdout, "target units:     %d\n", al.TargetUnits())
	fmt.Fprintf(stdout, "references:       %d\n", al.References())
	fmt.Fprintf(stdout, "mapped bytes:     %d\n", st.MappedBytes)
	fmt.Fprintf(stdout, "precompute bytes: %d\n", st.PrecomputeBytes)
	fmt.Fprintf(stdout, "source keys:      %d\n", len(meta.SourceKeys))
	fmt.Fprintf(stdout, "target keys:      %d\n", len(meta.TargetKeys))
	return nil
}
