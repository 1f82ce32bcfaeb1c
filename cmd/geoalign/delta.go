package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"geoalign"
)

// geoalign delta apply submits an incremental revision — crosswalk rows
// upserted or deleted, source aggregates revised — without rebuilding
// the engine from CSVs. Two modes:
//
//	geoalign delta apply -server http://host:8417 -engine name -delta d.json
//	    POST the delta to a running geoalignd, which applies it and
//	    hot-swaps the derived engine in as a new generation
//	geoalign delta apply -snapshot in.snap -delta d.json -out out.snap
//	    apply the delta offline: map the snapshot, derive the revised
//	    engine incrementally, and persist it (metadata preserved)
//
// The delta file is the JSON form of geoalign.Delta ("-" = stdin):
//
//	{"row_patches":    [{"ref":0,"row":12,"cols":[3,7],"vals":[1.5,2]},
//	                    {"ref":1,"row":40,"delete":true}],
//	 "source_patches": [{"ref":0,"row":12,"value":310.5}]}
func runDelta(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 || args[0] != "apply" {
		return fmt.Errorf("usage: geoalign delta apply ...")
	}
	fs := flag.NewFlagSet("geoalign delta apply", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		server    = fs.String("server", "", "geoalignd base URL; delta is applied to the live engine")
		engine    = fs.String("engine", "", "engine name on the server (required with -server)")
		snapPath  = fs.String("snapshot", "", "input snapshot; delta is applied offline")
		outPath   = fs.String("out", "", "output snapshot path (required with -snapshot)")
		deltaPath = fs.String("delta", "", "delta JSON file, - for stdin (required)")
	)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *deltaPath == "" {
		return fmt.Errorf("missing -delta")
	}
	d, raw, err := readDelta(*deltaPath)
	if err != nil {
		return err
	}
	switch {
	case *server != "" && *snapPath != "":
		return fmt.Errorf("-server and -snapshot are mutually exclusive")
	case *server != "":
		if *engine == "" {
			return fmt.Errorf("missing -engine")
		}
		return applyDeltaHTTP(*server, *engine, raw, stdout)
	case *snapPath != "":
		if *outPath == "" {
			return fmt.Errorf("missing -out")
		}
		return applyDeltaOffline(*snapPath, *outPath, d, stdout)
	default:
		return fmt.Errorf("give either -server (live apply) or -snapshot (offline apply)")
	}
}

// readDelta loads and structurally validates the delta JSON; the raw
// bytes are kept for the HTTP mode so the server sees exactly the file.
func readDelta(path string) (geoalign.Delta, []byte, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return geoalign.Delta{}, nil, err
		}
		defer f.Close()
		r = f
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return geoalign.Delta{}, nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var d geoalign.Delta
	if err := dec.Decode(&d); err != nil {
		return geoalign.Delta{}, nil, fmt.Errorf("parsing delta %s: %w", path, err)
	}
	if d.Empty() {
		return geoalign.Delta{}, nil, fmt.Errorf("delta %s carries no patches", path)
	}
	return d, raw, nil
}

func applyDeltaHTTP(server, engine string, raw []byte, stdout io.Writer) error {
	url := strings.TrimRight(server, "/") + "/v1/engines/" + engine + "/delta"
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("server: %s", e.Error)
		}
		return fmt.Errorf("server: status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var dr struct {
		Engine     string `json:"engine"`
		Generation int    `json:"generation"`
		Applied    int64  `json:"applied"`
		Persisted  bool   `json:"persisted"`
	}
	if err := json.Unmarshal(body, &dr); err != nil {
		return fmt.Errorf("parsing server response: %w", err)
	}
	suffix := ""
	if dr.Persisted {
		suffix = ", snapshot re-persisted"
	}
	fmt.Fprintf(stdout, "delta apply: engine %q now generation %d (%d deltas since boot%s)\n",
		dr.Engine, dr.Generation, dr.Applied, suffix)
	return nil
}

func applyDeltaOffline(snapPath, outPath string, d geoalign.Delta, stdout io.Writer) error {
	al, meta, err := geoalign.OpenSnapshot(snapPath, nil)
	if err != nil {
		return err
	}
	next, err := al.ApplyDelta(d)
	// The derived aligner never aliases the mapping, so the parent can go
	// before the revised engine is persisted.
	al.Close()
	if err != nil {
		return err
	}
	if err := next.WriteSnapshot(outPath, meta); err != nil {
		return err
	}
	st, err := os.Stat(outPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "delta apply: %s -> %s: %d sources -> %d targets, %d references, %d bytes\n",
		snapPath, outPath, next.SourceUnits(), next.TargetUnits(), next.References(), st.Size())
	return nil
}
