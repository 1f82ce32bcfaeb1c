package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"geoalign"
	"geoalign/internal/cliflag"
	"geoalign/internal/geom"
	"geoalign/internal/partition"
	"geoalign/internal/shapefile"
	"geoalign/internal/sparse"
	"geoalign/internal/table"
)

// runCrosswalk dispatches `geoalign crosswalk ...`.
func runCrosswalk(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: geoalign crosswalk build ...")
	}
	switch args[0] {
	case "build":
		return runCrosswalkBuild(args[1:], stderr)
	default:
		return fmt.Errorf("unknown crosswalk subcommand %q (want build)", args[0])
	}
}

// shpStream adapts an on-disk shapefile to partition.TileStream: each
// Scan reopens the file and streams records through the pull-based
// Scanner, so no pass ever materializes the layer. Files are assumed
// stable for the duration of the build (the tiled pipeline detects a
// record-count change between passes and fails cleanly).
type shpStream struct {
	base string
}

func (s shpStream) Scan(fn func(parts geom.MultiPolygon) error) error {
	sc, closer, err := shapefile.OpenScanner(s.base)
	if err != nil {
		return err
	}
	defer closer()
	for sc.Next() {
		if err := fn(sc.Record().Parts); err != nil {
			return err
		}
	}
	return sc.Err()
}

// collectNames streams a layer's attribute rows and returns one key per
// record: the nameField attribute when set and non-empty, otherwise a
// positional key. Duplicate names get a positional suffix so the keys
// always form a valid unit indexing.
func collectNames(base, nameField string) ([]string, error) {
	sc, closer, err := shapefile.OpenScanner(base)
	if err != nil {
		return nil, err
	}
	defer closer()
	var names []string
	seen := make(map[string]bool)
	for sc.Next() {
		i := len(names)
		name := ""
		if nameField != "" {
			name = strings.TrimSpace(sc.Record().Attrs[nameField])
		}
		if name == "" {
			name = fmt.Sprintf("u%07d", i)
		}
		if seen[name] {
			name = fmt.Sprintf("%s#%d", name, i)
		}
		seen[name] = true
		names = append(names, name)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return names, nil
}

// parseTiles parses the -tiles flag: "" or "auto" for budget-driven
// sizing, "N" for an N×N grid, "CxR" for an explicit grid.
func parseTiles(s string) (cols, rows int, err error) {
	t := strings.TrimSpace(strings.ToLower(s))
	if t == "" || t == "auto" {
		return 0, 0, nil
	}
	if c, r, ok := strings.Cut(t, "x"); ok {
		cols, err1 := strconv.Atoi(c)
		rows, err2 := strconv.Atoi(r)
		if err1 != nil || err2 != nil || cols < 1 || rows < 1 {
			return 0, 0, fmt.Errorf("bad -tiles %q (want auto, N, or CxR)", s)
		}
		return cols, rows, nil
	}
	n, err := strconv.Atoi(t)
	if err != nil || n < 1 {
		return 0, 0, fmt.Errorf("bad -tiles %q (want auto, N, or CxR)", s)
	}
	return n, n, nil
}

// runCrosswalkBuild streams two shapefile layers through the tiled
// out-of-core join and lands the resulting intersection-area crosswalk
// directly in an engine snapshot (and optionally a crosswalk CSV),
// without ever holding either layer in memory.
func runCrosswalkBuild(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("geoalign crosswalk build", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		srcBase   = fs.String("src", "", "source layer shapefile base path (required; .shp/.dbf, .shx optional)")
		tgtBase   = fs.String("tgt", "", "target layer shapefile base path (required)")
		outPath   = fs.String("out", "", "output engine snapshot path (required)")
		csvPath   = fs.String("csv", "", "also write the crosswalk as CSV (source,target,value)")
		attr      = fs.String("attr", "IntersectionArea", "reference attribute name stored in the engine")
		nameField = fs.String("name-field", "NAME", "attribute carrying unit names; empty = positional keys")
		memFlag   = fs.String("mem-budget", "", "approximate peak bytes for bucketed geometry, e.g. 512MiB; empty = unbounded")
		tilesFlag = fs.String("tiles", "auto", "tile grid: auto, N, or CxR")
		workers   = fs.Int("workers", 0, "tile-join parallelism; 0 = GOMAXPROCS")
		spillDir  = fs.String("spill-dir", "", "directory for the bucket spill file (default: system temp)")
		quiet     = fs.Bool("quiet", false, "suppress progress logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *srcBase == "" || *tgtBase == "" {
		return fmt.Errorf("missing -src or -tgt")
	}
	if *outPath == "" {
		return fmt.Errorf("missing -out")
	}
	budget, err := cliflag.ParseBytes(*memFlag)
	if err != nil {
		return err
	}
	cols, rows, err := parseTiles(*tilesFlag)
	if err != nil {
		return err
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(stderr, "crosswalk build: "+format+"\n", a...)
	}
	if *quiet {
		logf = func(string, ...any) {}
	}

	start := time.Now()
	dm, stats, err := partition.TiledMeasureDM(
		shpStream{base: *srcBase}, shpStream{base: *tgtBase},
		partition.TiledOptions{
			TileCols: cols, TileRows: rows,
			MemBudget: budget,
			Workers:   *workers,
			SpillDir:  *spillDir,
			Logf: func(format string, a ...any) {
				logf(format, a...)
			},
		})
	if err != nil {
		return err
	}
	logf("join done in %s: %d entries from %d×%d records", time.Since(start).Round(time.Millisecond),
		dm.NNZ(), stats.SourceRecords, stats.TargetRecords)

	srcKeys, err := collectNames(*srcBase, *nameField)
	if err != nil {
		return fmt.Errorf("reading source names: %w", err)
	}
	tgtKeys, err := collectNames(*tgtBase, *nameField)
	if err != nil {
		return fmt.Errorf("reading target names: %w", err)
	}
	if len(srcKeys) != stats.SourceRecords || len(tgtKeys) != stats.TargetRecords {
		return fmt.Errorf("layer changed during build: %d/%d names vs %d/%d joined records",
			len(srcKeys), len(tgtKeys), stats.SourceRecords, stats.TargetRecords)
	}

	if *csvPath != "" {
		if err := writeCrosswalkCSV(*csvPath, *attr, srcKeys, tgtKeys, dm); err != nil {
			return err
		}
		logf("wrote crosswalk CSV %s", *csvPath)
	}

	xw := geoalign.NewCrosswalk(dm.Rows, dm.Cols)
	for i := 0; i < dm.Rows; i++ {
		colIdx, vals := dm.Row(i)
		for k, j := range colIdx {
			if err := xw.Add(i, j, vals[k]); err != nil {
				return err
			}
		}
	}
	al, err := geoalign.NewAligner([]geoalign.Reference{{Name: *attr, Crosswalk: xw}}, nil)
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
	logf("snapshot %s: %d sources -> %d targets, %d bytes, %s total (spilled %.1f MiB, peak buckets %.1f MiB)",
		*outPath, al.SourceUnits(), al.TargetUnits(), st.Size(),
		time.Since(start).Round(time.Millisecond),
		float64(stats.SpilledBytes)/(1<<20), float64(stats.PeakBucketBytes)/(1<<20))
	return nil
}

func writeCrosswalkCSV(path, attr string, srcKeys, tgtKeys []string, dm *sparse.CSR) error {
	var triplets []table.Triplet
	for i := 0; i < dm.Rows; i++ {
		cols, vals := dm.Row(i)
		for k, j := range cols {
			triplets = append(triplets, table.Triplet{Source: srcKeys[i], Target: tgtKeys[j], Value: vals[k]})
		}
	}
	cw, err := table.NewCrosswalk(attr, srcKeys, tgtKeys, triplets)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cw.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
