// Command datagen emits a synthetic universe — the two unit-system
// layers and the full dataset catalog — to a directory, in the formats
// the paper's pipeline consumes: GeoJSON or shapefile for the feature
// layers, aggregate CSVs per dataset per level, and crosswalk CSVs for
// the disaggregation matrices.
//
//	datagen -kind us -scale 0.01 -budget 50000 -seed 7 -format geojson -out ./data
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"geoalign/internal/geojson"
	"geoalign/internal/geom"
	"geoalign/internal/shapefile"
	"geoalign/internal/synth"
	"geoalign/internal/table"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	var (
		kind   = fs.String("kind", "ny", "catalog kind: ny | us | tiger")
		scale  = fs.Float64("scale", 0.02, "unit-count scale relative to the paper's real counts")
		budget = fs.Int("budget", 20000, "points in the densest dataset")
		seed   = fs.Int64("seed", 1, "generation seed")
		format = fs.String("format", "geojson", "layer format: geojson | shapefile")
		outDir = fs.String("out", "data", "output directory")
		units  = fs.Int("units", 200000, "tiger mode: source-layer unit count (targets ~ units/ratio)")
		ratio  = fs.Int("ratio", 25, "tiger mode: source-to-target unit ratio")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *kind == "tiger" {
		return runTiger(*units, *ratio, *seed, *outDir)
	}

	var cfg synth.Config
	var ck synth.CatalogKind
	var name string
	switch *kind {
	case "ny":
		cfg, ck, name = synth.NYConfig(*seed, *scale), synth.NewYork, "New York State"
	case "us":
		cfg, ck, name = synth.USConfig(*seed, *scale), synth.UnitedStates, "United States"
	default:
		return fmt.Errorf("unknown -kind %q", *kind)
	}

	fmt.Fprintf(os.Stderr, "building %s universe: %d source units, %d target units\n",
		name, cfg.SourceUnits, cfg.TargetUnits)
	u, err := synth.BuildUniverse(name, cfg)
	if err != nil {
		return err
	}
	cat, err := synth.BuildCatalog(ck, u, *budget)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	layers := []struct {
		base  string
		polys []geom.Polygon
		names []string
	}{
		{"source_units", u.SourceDiagram.Cells, u.Source.Names},
		{"target_units", u.TargetDiagram.Cells, u.Target.Names},
	}
	for _, l := range layers {
		switch *format {
		case "geojson":
			if err := writeGeoJSON(filepath.Join(*outDir, l.base+".geojson"), l.polys, l.names); err != nil {
				return err
			}
		case "shapefile":
			if err := writeShapefile(filepath.Join(*outDir, l.base), l.polys, l.names); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown -format %q", *format)
		}
	}

	for _, d := range cat.Datasets {
		if err := writeDataset(u, d, *outDir); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %d datasets to %s\n", len(cat.Datasets), *outDir)
	return nil
}

// runTiger streams two TIGER-like unit layers straight to shapefiles —
// the generator emits one polygon at a time and the streaming Writer
// patches headers on close, so a 10⁶-unit layer never lives in memory.
// These layers are the intended input for `geoalign crosswalk build`.
func runTiger(units, ratio int, seed int64, outDir string) error {
	if units <= 0 {
		return fmt.Errorf("tiger mode needs -units > 0")
	}
	if ratio <= 0 {
		return fmt.Errorf("tiger mode needs -ratio > 0")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	layers := []struct {
		base string
		cfg  synth.TigerConfig
	}{
		{"source_units", synth.TigerConfig{Units: units, Seed: seed}},
		{"target_units", synth.TigerConfig{Units: max(1, units/ratio), Seed: seed + 1}},
	}
	for _, l := range layers {
		if err := streamTigerLayer(filepath.Join(outDir, l.base), l.cfg); err != nil {
			return err
		}
	}
	return nil
}

func streamTigerLayer(base string, cfg synth.TigerConfig) error {
	w, closer, err := shapefile.CreateWriter(base, []shapefile.Field{{Name: "NAME", Length: 12}})
	if err != nil {
		return err
	}
	err = synth.TigerLayer(cfg, func(i int, name string, parts geom.MultiPolygon) error {
		return w.Write(shapefile.MultiRecord{
			Parts: parts,
			Attrs: map[string]string{"NAME": name},
		})
	})
	if err != nil {
		closer()
		return fmt.Errorf("streaming %s: %w", base, err)
	}
	if err := closer(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d tiger units to %s.{shp,shx,dbf}\n", w.Records(), base)
	return nil
}

func writeGeoJSON(path string, polys []geom.Polygon, names []string) error {
	var lay geojson.Layer
	for i, pg := range polys {
		lay.Features = append(lay.Features, geojson.Feature{
			Polygon:    pg,
			Properties: map[string]any{"name": names[i]},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return geojson.Write(f, &lay)
}

func writeShapefile(base string, polys []geom.Polygon, names []string) error {
	file := &shapefile.File{
		Fields: []shapefile.Field{{Name: "NAME", Length: 16}},
	}
	for i, pg := range polys {
		file.Records = append(file.Records, shapefile.Record{
			Polygon: pg,
			Attrs:   map[string]string{"NAME": names[i]},
		})
	}
	shp, shx, dbf, err := shapefile.Write(file)
	if err != nil {
		return err
	}
	for ext, data := range map[string][]byte{".shp": shp, ".shx": shx, ".dbf": dbf} {
		if err := os.WriteFile(base+ext, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// writeDataset emits three files per dataset: the source-level and
// target-level aggregate CSVs and the crosswalk CSV.
func writeDataset(u *synth.Universe, d *synth.Dataset, outDir string) error {
	slug := slugify(d.Name)

	src, err := table.NewAggregate(d.Name, u.Source.Names, d.Source)
	if err != nil {
		return err
	}
	if err := writeCSV(filepath.Join(outDir, slug+"_by_source.csv"), src.WriteCSV); err != nil {
		return err
	}
	tgt, err := table.NewAggregate(d.Name, u.Target.Names, d.Target)
	if err != nil {
		return err
	}
	if err := writeCSV(filepath.Join(outDir, slug+"_by_target.csv"), tgt.WriteCSV); err != nil {
		return err
	}

	var triplets []table.Triplet
	for i := 0; i < d.DM.Rows; i++ {
		cols, vals := d.DM.Row(i)
		for k, j := range cols {
			triplets = append(triplets, table.Triplet{
				Source: u.Source.Names[i],
				Target: u.Target.Names[j],
				Value:  vals[k],
			})
		}
	}
	cw, err := table.NewCrosswalk(d.Name, u.Source.Names, u.Target.Names, triplets)
	if err != nil {
		return err
	}
	return writeCSV(filepath.Join(outDir, slug+"_crosswalk.csv"), cw.WriteCSV)
}

func writeCSV(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func slugify(name string) string {
	s := strings.ToLower(name)
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			sb.WriteRune(r)
		case r == ' ' || r == '.' || r == '(' || r == ')':
			if sb.Len() > 0 && !strings.HasSuffix(sb.String(), "_") {
				sb.WriteByte('_')
			}
		}
	}
	return strings.TrimSuffix(sb.String(), "_")
}
