package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/store"
)

// FuzzSpec hardens the POST /jobs decoder: any body goes through
// decodeBody, withDefaults and RunSpec.Validate without panicking, and every
// spec the daemon admits names its run by a key string that parses
// back to the same store key — the round trip Scheduler.Recover relies
// on to re-admit an interrupted job from its checkpoint file name.
func FuzzSpec(f *testing.F) {
	for _, body := range []string{
		`{"workload":"cartpole"}`,
		`{"workload":"alien-ram","population":32,"generations":3,"seed":7}`,
		`{"workload":"mario","population":16,"generations":100,"seed":18446744073709551615}`,
		`{"workload":"cartpole","population":64,"islands":2,"migration_every":5}`,
		`{"workload":"cartpole","islands":4}`,
		`{"workload":"mountaincar","objectives":"fitness+genes+energy"}`,
		`{"workload":"cartpole","objectives":"genes","client":"c1"}`,
		`{"workload":"cartpole","migration_every":3}`,
		`{"workload":"cartpole","islands":-1}`,
		`{"workload":"ghost"}`,
		`{"workload":"cartpole","population":1}`,
		`[]`, `{`, ``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
		var spec Spec
		if !decodeBody(httptest.NewRecorder(), req, &spec, "bad spec") {
			return
		}
		sp := spec.withDefaults()
		if sp.run().Validate() != nil {
			return
		}
		key := sp.key()
		if k, ok := store.ParseKeyFilename(key); !ok || k != sp.storeKey() {
			t.Fatalf("admitted spec %+v: key %q parses to %#v (ok=%v), want %#v",
				sp, key, k, ok, sp.storeKey())
		}
	})
}
