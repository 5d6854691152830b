// Command tool is the fixture module's one non-test user of package lib.
package main

import (
	"encoding/json"
	"fmt"

	"surface/internal/lib"
)

func main() {
	var buf lib.Buffer
	buf.Flush()
	var batch lib.Batch
	batch.Add(lib.Used())
	var r lib.Report
	if err := json.Unmarshal([]byte(`{"name":"x","count":1}`), &r); err != nil {
		panic(err)
	}
	cfg := lib.Config{Size: lib.Sum(&lib.Counter{}, 3)}
	fmt.Println(cfg, r)
}
