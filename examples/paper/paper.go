// Package paper holds the sweep documents that run the paper's
// evaluation on the executable engine, embedded so that commands read
// them from any working directory:
//
//   - des_accuracy.json: the accuracy sweep behind Table 2 / Figure 4.
//   - des_lob.json: the LOB-depth trade-off.
//
// Each document's base spec is the conventional (conservative) run of
// the stream design. `sweep -grid FILE -csv` runs that base as the
// baseline plus the expanded points and writes the CSV checked in
// beside the document (des_accuracy.csv, des_lob.csv).
package paper

import (
	"embed"
	"fmt"

	"coemu/internal/spec"
)

//go:embed *.json
var docs embed.FS

// Load parses the named embedded sweep document ("des_accuracy.json").
func Load(name string) (*spec.SweepSpec, error) {
	data, err := docs.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("paper: %w", err)
	}
	ss, err := spec.ParseSweep(data)
	if err != nil {
		return nil, fmt.Errorf("%w (paper document %s)", err, name)
	}
	return ss, nil
}
