package surf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// The reference codec: the reflection-based encoding that json.go's
// hand-written codec replaced, kept as it was apart from its names.
// Floats marshal through a type with their own marshalers, results
// and regions through shadow structs, each region with a nested
// json.Marshal or json.Unmarshal. The differential tests below and
// FuzzAnswerJSON hold the production codec to its bytes and values.

// jsonFloat is a float64 whose JSON form tolerates non-finite values.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"NaN"`, "null":
		*f = jsonFloat(math.NaN())
		return nil
	case `"+Inf"`, `"Inf"`:
		*f = jsonFloat(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = jsonFloat(math.Inf(-1))
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("surf: float %q: %w", b, err)
	}
	*f = jsonFloat(v)
	return nil
}

func toJSONFloats(v []float64) []jsonFloat {
	out := make([]jsonFloat, len(v))
	for i, x := range v {
		out[i] = jsonFloat(x)
	}
	return out
}

func fromJSONFloats(v []jsonFloat) []float64 {
	if v == nil {
		return nil
	}
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// regionJSON is Region's wire form.
type regionJSON struct {
	Min       []jsonFloat `json:"min"`
	Max       []jsonFloat `json:"max"`
	Estimate  jsonFloat   `json:"estimate"`
	Score     jsonFloat   `json:"score"`
	Worms     int         `json:"worms"`
	TrueValue jsonFloat   `json:"true_value"`
	Verified  bool        `json:"verified"`
	Satisfies bool        `json:"satisfies"`
}

// refRegion is Region under the reference codec.
type refRegion Region

func (r refRegion) MarshalJSON() ([]byte, error) {
	return json.Marshal(regionJSON{
		Min: toJSONFloats(r.Min), Max: toJSONFloats(r.Max),
		Estimate: jsonFloat(r.Estimate), Score: jsonFloat(r.Score),
		Worms: r.Worms, TrueValue: jsonFloat(r.TrueValue),
		Verified: r.Verified, Satisfies: r.Satisfies,
	})
}

func (r *refRegion) UnmarshalJSON(b []byte) error {
	var w regionJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*r = refRegion{
		Min: fromJSONFloats(w.Min), Max: fromJSONFloats(w.Max),
		Estimate: float64(w.Estimate), Score: float64(w.Score),
		Worms: w.Worms, TrueValue: float64(w.TrueValue),
		Verified: w.Verified, Satisfies: w.Satisfies,
	}
	return nil
}

// resultJSON is Result's wire form.
type resultJSON struct {
	Regions               []refRegion `json:"regions"`
	ValidParticleFraction jsonFloat   `json:"valid_particle_fraction"`
	ComplianceRate        jsonFloat   `json:"compliance_rate"`
	ElapsedSeconds        jsonFloat   `json:"elapsed_seconds"`
}

// refResult is Result under the reference codec.
type refResult Result

func (r refResult) MarshalJSON() ([]byte, error) {
	regions := make([]refRegion, len(r.Regions)) // an empty result is [], not null
	for i, g := range r.Regions {
		regions[i] = refRegion(g)
	}
	return json.Marshal(resultJSON{
		Regions:               regions,
		ValidParticleFraction: jsonFloat(r.ValidParticleFraction),
		ComplianceRate:        jsonFloat(r.ComplianceRate),
		ElapsedSeconds:        jsonFloat(r.ElapsedSeconds),
	})
}

func (r *refResult) UnmarshalJSON(b []byte) error {
	var w resultJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	var regions []Region
	if w.Regions != nil {
		regions = make([]Region, len(w.Regions))
		for i, g := range w.Regions {
			regions[i] = Region(g)
		}
	}
	*r = refResult{
		Regions:               regions,
		ValidParticleFraction: float64(w.ValidParticleFraction),
		ComplianceRate:        float64(w.ComplianceRate),
		ElapsedSeconds:        float64(w.ElapsedSeconds),
	}
	return nil
}

type eventIterationJSON struct {
	Type                  string    `json:"type"`
	Iteration             int       `json:"iteration"`
	MeanFitness           jsonFloat `json:"mean_fitness"`
	MeanLuciferin         jsonFloat `json:"mean_luciferin"`
	ValidParticleFraction jsonFloat `json:"valid_particle_fraction"`
	Moved                 int       `json:"moved"`
}

type eventRegionJSON struct {
	Type      string    `json:"type"`
	Iteration int       `json:"iteration"`
	Region    refRegion `json:"region"`
}

type eventDoneJSON struct {
	Type   string     `json:"type"`
	Result *refResult `json:"result"`
}

// refMarshalEvent is MarshalEvent under the reference codec.
func refMarshalEvent(ev Event) ([]byte, error) {
	switch ev := ev.(type) {
	case EventIteration:
		return json.Marshal(eventIterationJSON{
			Type:                  "iteration",
			Iteration:             ev.Iteration,
			MeanFitness:           jsonFloat(ev.MeanFitness),
			MeanLuciferin:         jsonFloat(ev.MeanLuciferin),
			ValidParticleFraction: jsonFloat(ev.ValidParticleFraction),
			Moved:                 ev.Moved,
		})
	case EventRegion:
		return json.Marshal(eventRegionJSON{
			Type: "region", Iteration: ev.Iteration, Region: refRegion(ev.Region),
		})
	case EventDone:
		return json.Marshal(eventDoneJSON{Type: "done", Result: (*refResult)(ev.Result)})
	}
	return nil, fmt.Errorf("surf: MarshalEvent on unknown event %T", ev)
}

// refUnmarshalEvent is UnmarshalEvent under the reference codec.
func refUnmarshalEvent(b []byte) (Event, error) {
	var head struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(b, &head); err != nil {
		return nil, err
	}
	switch head.Type {
	case "iteration":
		var w eventIterationJSON
		if err := json.Unmarshal(b, &w); err != nil {
			return nil, err
		}
		return EventIteration{
			Iteration:             w.Iteration,
			MeanFitness:           float64(w.MeanFitness),
			MeanLuciferin:         float64(w.MeanLuciferin),
			ValidParticleFraction: float64(w.ValidParticleFraction),
			Moved:                 w.Moved,
		}, nil
	case "region":
		var w eventRegionJSON
		if err := json.Unmarshal(b, &w); err != nil {
			return nil, err
		}
		return EventRegion{Region: Region(w.Region), Iteration: w.Iteration}, nil
	case "done":
		var w eventDoneJSON
		if err := json.Unmarshal(b, &w); err != nil {
			return nil, err
		}
		if w.Result == nil {
			w.Result = &refResult{}
		}
		return EventDone{Result: (*Result)(w.Result)}, nil
	}
	return nil, fmt.Errorf("surf: UnmarshalEvent: unknown event type %q", head.Type)
}

// dumpFloats, dumpRegion, dumpResult and dumpEvent print a value with
// every float as its bit pattern and nil lists as nil, so two values
// dump alike exactly when they are bit-identical.
func dumpFloats(v []float64) string {
	if v == nil {
		return "nil"
	}
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%#x", math.Float64bits(x))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func dumpRegion(r Region) string {
	return fmt.Sprintf("{min %s max %s est %s score %s worms %d true %s verified %t satisfies %t}",
		dumpFloats(r.Min), dumpFloats(r.Max), dumpFloats([]float64{r.Estimate}), dumpFloats([]float64{r.Score}),
		r.Worms, dumpFloats([]float64{r.TrueValue}), r.Verified, r.Satisfies)
}

func dumpResult(r *Result) string {
	if r == nil {
		return "nil"
	}
	regions := "nil"
	if r.Regions != nil {
		parts := make([]string, len(r.Regions))
		for i, g := range r.Regions {
			parts[i] = dumpRegion(g)
		}
		regions = "[" + strings.Join(parts, " ") + "]"
	}
	return fmt.Sprintf("{regions %s vpf %s compliance %s elapsed %s}", regions,
		dumpFloats([]float64{r.ValidParticleFraction}), dumpFloats([]float64{r.ComplianceRate}),
		dumpFloats([]float64{r.ElapsedSeconds}))
}

func dumpEvent(ev Event) string {
	switch ev := ev.(type) {
	case EventIteration:
		return fmt.Sprintf("iteration{%d %s moved %d}", ev.Iteration,
			dumpFloats([]float64{ev.MeanFitness, ev.MeanLuciferin, ev.ValidParticleFraction}), ev.Moved)
	case EventRegion:
		return fmt.Sprintf("region{%d %s}", ev.Iteration, dumpRegion(ev.Region))
	case EventDone:
		return "done" + dumpResult(ev.Result)
	}
	return fmt.Sprintf("%T", ev)
}

// wireResult, wireRegion and wireEvent return the value as its wire
// form decodes: nil lists become empty ones and a done event's nil
// result an empty one.
func wireResult(r *Result) *Result {
	out := &Result{Regions: make([]Region, len(r.Regions)), ValidParticleFraction: r.ValidParticleFraction,
		ComplianceRate: r.ComplianceRate, ElapsedSeconds: r.ElapsedSeconds}
	for i, g := range r.Regions {
		out.Regions[i] = wireRegion(g)
	}
	return out
}

func wireRegion(g Region) Region {
	g.Min = append([]float64{}, g.Min...)
	g.Max = append([]float64{}, g.Max...)
	return g
}

func wireEvent(ev Event) Event {
	switch ev := ev.(type) {
	case EventRegion:
		ev.Region = wireRegion(ev.Region)
		return ev
	case EventDone:
		if ev.Result == nil {
			return EventDone{Result: wireResult(&Result{})}
		}
		return EventDone{Result: wireResult(ev.Result)}
	}
	return ev
}

// specialFloats are the values whose wire form is easiest to get
// wrong: non-finite, signed zero, subnormal, the exponent switch-over
// points of the shortest 'g' form and the extremes.
var specialFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, 1e21, 1e20, 1e-7, 1e-6, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64 * 3, 0.1, -2.5, 123456789, 1.0 / 3,
}

// encodeRows builds the answers and events the encoder table compares.
func encodeRows() (results []Result, events []Event) {
	regionOf := func(v float64, i int) Region {
		return Region{
			Min: []float64{v, -v, float64(i)}, Max: []float64{v * 2, 1},
			Estimate: v, Score: -v, Worms: i * 7, TrueValue: v / 3,
			Verified: i%2 == 0, Satisfies: i%3 == 0,
		}
	}
	var regions []Region
	for i, v := range specialFloats {
		g := regionOf(v, i)
		regions = append(regions, g)
		results = append(results, Result{
			Regions: []Region{g}, ValidParticleFraction: v, ComplianceRate: -v, ElapsedSeconds: v,
		})
		events = append(events,
			EventIteration{Iteration: i, MeanFitness: v, MeanLuciferin: -v, ValidParticleFraction: v / 7, Moved: -i},
			EventRegion{Iteration: i, Region: g})
	}
	sixteen := make([]Region, 16)
	for i := range sixteen {
		sixteen[i] = regionOf(float64(i)*0.37-2, i)
	}
	results = append(results,
		Result{},                    // nil regions
		Result{Regions: []Region{}}, // empty regions
		Result{Regions: []Region{{}, {Min: []float64{}, Max: []float64{}}}, ComplianceRate: math.NaN()},
		Result{Regions: sixteen, ValidParticleFraction: 0.75, ComplianceRate: 0.5, ElapsedSeconds: 0.0123},
		Result{Regions: regions, ComplianceRate: math.NaN()},
		Result{Regions: []Region{{Worms: math.MaxInt, Min: []float64{1}}, {Worms: math.MinInt}}},
	)
	events = append(events, EventDone{}, EventRegion{})
	for i := range results {
		events = append(events, EventDone{Result: &results[i]})
	}
	return results, events
}

// TestAnswerJSONMatchesReference is the encoder's differential table:
// every Result, Region and event encodes to the reference codec's
// bytes, and both decoders read those bytes back bit-identically.
func TestAnswerJSONMatchesReference(t *testing.T) {
	results, events := encodeRows()
	for i, res := range results {
		got, err := res.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := refResult(res).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("result %d encodes as\n%s\nwant\n%s", i, got, want)
		}
		if app := res.AppendJSON([]byte("prefix")); string(app) != "prefix"+string(want) {
			t.Errorf("result %d AppendJSON gives %s", i, app)
		}
		var back Result
		if err := back.UnmarshalJSON(got); err != nil {
			t.Fatalf("result %d: decode %s: %v", i, got, err)
		}
		var ref refResult
		if err := ref.UnmarshalJSON(got); err != nil {
			t.Fatal(err)
		}
		if g, r := dumpResult(&back), dumpResult((*Result)(&ref)); g != r {
			t.Errorf("result %d decodes as\n%s\nreference\n%s", i, g, r)
		}
		for j, g := range res.Regions {
			got, _ := g.MarshalJSON()
			want, _ := refRegion(g).MarshalJSON()
			if !bytes.Equal(got, want) {
				t.Errorf("result %d region %d encodes as\n%s\nwant\n%s", i, j, got, want)
			}
			var back Region
			var ref refRegion
			if err := ref.UnmarshalJSON(got); err != nil {
				t.Fatal(err)
			}
			if err := back.UnmarshalJSON(got); err != nil || dumpRegion(back) != dumpRegion(Region(ref)) {
				t.Errorf("result %d region %d decodes as %s (%v), reference %s", i, j, dumpRegion(back), err, dumpRegion(Region(ref)))
			}
		}
	}
	for i, ev := range events {
		got, err := MarshalEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refMarshalEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("event %d encodes as\n%s\nwant\n%s", i, got, want)
		}
		back, err := UnmarshalEvent(got)
		if err != nil {
			t.Fatalf("event %d: decode %s: %v", i, got, err)
		}
		ref, err := refUnmarshalEvent(got)
		if err != nil {
			t.Fatal(err)
		}
		if g, r := dumpEvent(back), dumpEvent(ref); g != r {
			t.Errorf("event %d decodes as\n%s\nreference\n%s", i, g, r)
		}
	}
}

// TestAnswerJSONAccepts lists inputs the decoder must accept: each
// decodes to the reference decoder's value, bit for bit.
func TestAnswerJSONAccepts(t *testing.T) {
	const region = `{"min":[0.5],"max":[1],"estimate":3,"score":-1,"worms":4,"true_value":"NaN","verified":true,"satisfies":false}`
	results := []struct{ name, in string }{
		{"whitespace", " \t\r\n{ \"regions\" :\n[ " + region + " , " + region + " ] ,\t\"compliance_rate\" : 0.5 , \"elapsed_seconds\":1e-3 , \"valid_particle_fraction\" : 1 }\n "},
		{"reordered keys", `{"elapsed_seconds":2,"compliance_rate":"NaN","valid_particle_fraction":0.25,"regions":[{"satisfies":true,"worms":2,"max":[3,4],"min":[1,2],"verified":true,"true_value":5,"score":6,"estimate":7}]}`},
		{"request_id first", `{"request_id":"abc.DEF-1_2","regions":[` + region + `],"valid_particle_fraction":0.5,"compliance_rate":1,"elapsed_seconds":0.001}`},
		{"unknown keys", `{"x":{"a":[1,{"b":null,"c":[true,false]}],"d":"s\"\\é😀"},"regions":[{"junk":[[],{},-0.5e+10],"min":[1],"max":[2],"more":"x"}],"y":[{"z":[[[]]]}],"w":-0,"v":null,"u":true}`},
		{"null floats", `{"regions":[{"min":[null,1],"max":null,"estimate":null,"score":null,"true_value":null}],"valid_particle_fraction":null,"compliance_rate":null,"elapsed_seconds":null}`},
		{"Inf alias", `{"regions":[{"min":["Inf","-Inf","+Inf","NaN"],"score":"Inf"}],"compliance_rate":"Inf"}`},
		{"null members", `{"regions":[null,{"worms":null,"verified":null}],"compliance_rate":0}`},
		{"null regions", `{"regions":null}`},
		{"empty object", `{}`},
		{"null result", `null`},
		{"repeated keys", `{"regions":[` + region + `,` + region + `],"regions":[{"min":[9],"worms":1,"worms":2,"min":[8,7]}],"compliance_rate":1,"compliance_rate":2}`},
		{"escaped keys", `{"regi\u006fns":[{"m\u0069n":[1],"w\/orms":3,"\u0077orms":4}],"\u00e9":1,"\ud800":2,"\udc00\ud800\udc00":3,"\ud800\u0041":4}`},
		{"number forms", `{"regions":[{"min":[-0,0.0,1E5,1e-400,2.5e+3,-123.456e-7,100000000000000000000000]}],"compliance_rate":4.9e-324}`},
		{"deep unknown", `{"x":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `}`},
	}
	for _, tt := range results {
		var got Result
		if err := got.UnmarshalJSON([]byte(tt.in)); err != nil {
			t.Errorf("%s: rejected: %v", tt.name, err)
			continue
		}
		var ref refResult
		if err := ref.UnmarshalJSON([]byte(tt.in)); err != nil {
			t.Fatalf("%s: the reference rejects the row: %v", tt.name, err)
		}
		if g, w := dumpResult(&got), dumpResult((*Result)(&ref)); g != w {
			t.Errorf("%s: decodes as\n%s\nreference\n%s", tt.name, g, w)
		}
	}

	events := []struct{ name, in string }{
		{"type last", `{"iteration":3,"mean_fitness":"NaN","moved":2,"type":"iteration"}`},
		{"other kinds' keys", `{"iteration":"x","mean_fitness":[],"region":7,"type":"done","result":{"regions":[]}}`},
		{"region with done's key", `{"result":"nope","type":"region","region":{"min":[1]},"iteration":4}`},
		{"iteration with region's key", `{"type":"iteration","region":{"min":"x"},"Result":1,"REGION":2,"moved":3}`},
		{"retyped", `{"type":"iteration","moved":1,"type":null,"type":"done"}`},
		{"escaped type", `{"typ\u0065":"d\u006fne","result":null}`},
		{"done without result", ` {"type":"done"} `},
		{"null region", `{"type":"region","region":null,"iteration":null}`},
		{"request_id", `{"request_id":"x","type":"done","result":{"regions":[null]}}`},
	}
	for _, tt := range events {
		got, err := UnmarshalEvent([]byte(tt.in))
		if err != nil {
			t.Errorf("event %s: rejected: %v", tt.name, err)
			continue
		}
		ref, err := refUnmarshalEvent([]byte(tt.in))
		if err != nil {
			t.Fatalf("event %s: the reference rejects the row: %v", tt.name, err)
		}
		if g, w := dumpEvent(got), dumpEvent(ref); g != w {
			t.Errorf("event %s: decodes as\n%s\nreference\n%s", tt.name, g, w)
		}
	}
}

// TestAnswerJSONRejects lists inputs the decoder must reject with an
// error: malformed JSON, values of the wrong kind, numbers that are
// not JSON although strconv.ParseFloat reads them, and keys that
// match only when case is ignored, the one form encoding/json
// accepted that this codec does not.
func TestAnswerJSONRejects(t *testing.T) {
	wrap := func(floatText string) string {
		return `{"regions":[{"min":[` + floatText + `]}]}`
	}
	results := []struct{ name, in string }{
		{"trailing data", `{"regions":[]} x`},
		{"second value", `{}{}`},
		{"trailing comma", `{"regions":[],}`},
		{"empty", ``},
		{"not an object", `[1]`},
		{"string result", `"x"`},
		{"unterminated", `{"regions":[`},
		{"missing colon", `{"regions" []}`},
		{"bad escape", `{"a\x":1}`},
		{"short unicode escape", `{"\u12":1}`},
		{"control character", "{\"a\tb\":1}"},
		{"worms fraction", `{"regions":[{"worms":1.5}]}`},
		{"worms exponent", `{"regions":[{"worms":1e2}]}`},
		{"worms out of range", `{"regions":[{"worms":9223372036854775808}]}`},
		{"worms string", `{"regions":[{"worms":"3"}]}`},
		{"plus sign", wrap(`+1`)},
		{"leading zero", wrap(`01`)},
		{"bare point", wrap(`1.`)},
		{"no integer part", wrap(`.5`)},
		{"hex float", wrap(`0x1p3`)},
		{"inf", wrap(`inf`)},
		{"Infinity", wrap(`Infinity`)},
		{"bare NaN", wrap(`NaN`)},
		{"lone minus", wrap(`-`)},
		{"bare exponent", wrap(`1e`)},
		{"underscore", wrap(`1_0`)},
		{"out of range", wrap(`1e400`)},
		{"lower-case nan string", wrap(`"nan"`)},
		{"number string", wrap(`"1"`)},
		{"bool float", wrap(`true`)},
		{"string bool", `{"regions":[{"verified":"true"}]}`},
		{"object regions", `{"regions":{}}`},
		{"number region", `{"regions":[1]}`},
		{"upper-case key", `{"Regions":[]}`},
		{"mixed-case region key", `{"regions":[{"Worms":1}]}`},
		{"long s key", `{"regions":[{"ſcore":1}]}`},
		{"too deep", `{"x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`},
	}
	for _, tt := range results {
		var got Result
		if err := got.UnmarshalJSON([]byte(tt.in)); err == nil {
			t.Errorf("%s: accepted %q as %s", tt.name, tt.in, dumpResult(&got))
		}
	}
	// The case-insensitive rows are the declared narrowing: the
	// reference accepted them.
	for _, in := range []string{`{"Regions":[]}`, `{"regions":[{"Worms":1}]}`, `{"regions":[{"ſcore":1}]}`} {
		var ref refResult
		if err := ref.UnmarshalJSON([]byte(in)); err != nil {
			t.Errorf("reference rejects %s: %v", in, err)
		}
	}

	events := []struct{ name, in string }{
		{"unknown type", `{"type":"mystery"}`},
		{"no type", `{"result":null}`},
		{"number type", `{"type":5,"type":"done"}`},
		{"garbage", `not json`},
		{"upper-case type key", `{"TYPE":"done"}`},
		{"upper-case type value", `{"type":"DONE"}`},
		{"bad iteration", `{"type":"iteration","moved":"x"}`},
		{"repeated bad key", `{"type":"iteration","moved":"x","moved":3}`},
		{"bad region", `{"type":"region","region":{"min":"x"}}`},
		{"case key of its kind", `{"type":"done","Result":null}`},
		{"bad result", `{"result":{"regions":[{"worms":0.5}]},"type":"done"}`},
		{"trailing data", `{"type":"done"}]`},
		{"broken skipped value", `{"type":"done","iteration":[1,}`},
	}
	for _, tt := range events {
		if ev, err := UnmarshalEvent([]byte(tt.in)); err == nil {
			t.Errorf("event %s: accepted %q as %s", tt.name, tt.in, dumpEvent(ev))
		}
	}
}

// TestRegionJSONRoundTrip round-trips a region with non-finite fields
// through its JSON form.
func TestRegionJSONRoundTrip(t *testing.T) {
	r := Region{
		Min: []float64{0.1, -2}, Max: []float64{0.4, 3},
		Estimate: 42.5, Score: math.Inf(-1), Worms: 7,
		TrueValue: math.NaN(), Verified: true, Satisfies: false,
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"min"`, `"max"`, `"estimate"`, `"true_value"`, `"NaN"`, `"-Inf"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("encoding %s lacks %s", b, key)
		}
	}
	var back Region
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Min[0] != r.Min[0] || back.Max[1] != r.Max[1] || back.Estimate != r.Estimate {
		t.Errorf("round trip changed bounds: %+v", back)
	}
	if !math.IsNaN(back.TrueValue) || !math.IsInf(back.Score, -1) {
		t.Errorf("non-finite fields lost: %+v", back)
	}
	if back.Worms != 7 || !back.Verified || back.Satisfies {
		t.Errorf("scalar fields lost: %+v", back)
	}
}

// TestResultJSONRoundTrip round-trips a result, including the
// NaN compliance rate of an unverified run and the empty-regions
// encoding.
func TestResultJSONRoundTrip(t *testing.T) {
	res := Result{
		Regions: []Region{{
			Min: []float64{0}, Max: []float64{1}, Estimate: 5,
		}},
		ValidParticleFraction: 0.75,
		ComplianceRate:        math.NaN(),
		ElapsedSeconds:        1.25,
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Regions) != 1 || back.Regions[0].Estimate != 5 {
		t.Errorf("regions lost: %+v", back)
	}
	if back.ValidParticleFraction != 0.75 || !math.IsNaN(back.ComplianceRate) || back.ElapsedSeconds != 1.25 {
		t.Errorf("figures lost: %+v", back)
	}

	empty, err := json.Marshal(Result{ComplianceRate: math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(empty), `"regions":[]`) {
		t.Errorf("empty result encodes regions as %s, want []", empty)
	}
}

// TestQueryJSON decodes the documented client-facing field names.
func TestQueryJSON(t *testing.T) {
	var q Query
	err := json.Unmarshal([]byte(`{
		"threshold": 100, "above": true, "c": 2.5, "max_regions": 8,
		"use_true_function": true, "use_kde": true, "kde_sample": 500,
		"glowworms": 40, "iterations": 60, "min_side_frac": 0.02,
		"max_side_frac": 0.2, "workers": 4, "skip_verify": true,
		"cluster_extents": true, "seed": 9
	}`), &q)
	if err != nil {
		t.Fatal(err)
	}
	want := Query{
		Threshold: 100, Above: true, C: 2.5, MaxRegions: 8,
		UseTrueFunction: true, UseKDE: true, KDESample: 500,
		Glowworms: 40, Iterations: 60, MinSideFrac: 0.02,
		MaxSideFrac: 0.2, Workers: 4, SkipVerify: true,
		ClusterExtents: true, Seed: 9,
	}
	if q != want {
		t.Errorf("decoded %+v,\nwant %+v", q, want)
	}

	var tk TopKQuery
	err = json.Unmarshal([]byte(`{"k": 5, "largest": true, "c": 3, "use_true_function": true, "skip_verify": true, "seed": 2}`), &tk)
	if err != nil {
		t.Fatal(err)
	}
	if tk.K != 5 || !tk.Largest || tk.C != 3 || !tk.UseTrueFunction || !tk.SkipVerify || tk.Seed != 2 {
		t.Errorf("decoded %+v", tk)
	}
}

// TestEventJSONRoundTrip round-trips each event type through
// MarshalEvent/UnmarshalEvent.
func TestEventJSONRoundTrip(t *testing.T) {
	events := []Event{
		EventIteration{Iteration: 3, MeanFitness: math.NaN(), MeanLuciferin: 5.5, ValidParticleFraction: 0.25, Moved: 40},
		EventRegion{Iteration: 9, Region: Region{Min: []float64{0.2}, Max: []float64{0.6}, Estimate: 11, Worms: 3}},
		EventDone{Result: &Result{ComplianceRate: math.NaN(), Regions: []Region{{Min: []float64{0}, Max: []float64{1}}}}},
	}
	for _, ev := range events {
		b, err := MarshalEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalEvent(b)
		if err != nil {
			t.Fatalf("decode %s: %v", b, err)
		}
		switch orig := ev.(type) {
		case EventIteration:
			got, ok := back.(EventIteration)
			if !ok || got.Iteration != orig.Iteration || !math.IsNaN(got.MeanFitness) || got.Moved != orig.Moved {
				t.Errorf("iteration round trip: %+v", back)
			}
		case EventRegion:
			got, ok := back.(EventRegion)
			if !ok || got.Iteration != orig.Iteration || got.Region.Estimate != orig.Region.Estimate {
				t.Errorf("region round trip: %+v", back)
			}
		case EventDone:
			got, ok := back.(EventDone)
			if !ok || len(got.Result.Regions) != 1 || !math.IsNaN(got.Result.ComplianceRate) {
				t.Errorf("done round trip: %+v", back)
			}
		}
	}
	if _, err := UnmarshalEvent([]byte(`{"type":"mystery"}`)); err == nil {
		t.Error("unknown event type accepted")
	}
	if _, err := UnmarshalEvent([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

// TestAppendJSONAllocs: encoding into a buffer with room allocates
// nothing.
func TestAppendJSONAllocs(t *testing.T) {
	res := benchAnswer()
	buf := res.AppendJSON(nil)
	if n := testing.AllocsPerRun(100, func() { buf = res.AppendJSON(buf[:0]) }); n != 0 {
		t.Errorf("Result.AppendJSON allocates %.1f times per call into a reused buffer", n)
	}
	ev := Event(EventIteration{Iteration: 7, MeanFitness: 0.25, MeanLuciferin: 4.5, ValidParticleFraction: 0.5, Moved: 12})
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendEvent(buf[:0], ev) }); n != 0 {
		t.Errorf("AppendEvent allocates %.1f times per call into a reused buffer", n)
	}
}

// benchAnswer is a served answer's shape: four verified 2-D regions.
func benchAnswer() Result {
	res := Result{ValidParticleFraction: 0.62, ComplianceRate: 0.75, ElapsedSeconds: 0.028411903}
	for i := range 4 {
		f := float64(i)
		res.Regions = append(res.Regions, Region{
			Min: []float64{0.1234567 + f/10, 0.2876543}, Max: []float64{0.3019283 + f/10, 0.4411112},
			Estimate: 812.3371 - f, Score: 0.0412983 / (f + 1), Worms: 20 - i,
			TrueValue: 803 - f, Verified: true, Satisfies: i != 2,
		})
	}
	return res
}

// BenchmarkAnswerJSON times encode and decode of a 4-region answer and
// of one iteration event, through this codec and the reference.
func BenchmarkAnswerJSON(b *testing.B) {
	res := benchAnswer()
	enc, _ := res.MarshalJSON()
	ev := Event(EventIteration{Iteration: 7, MeanFitness: 0.25, MeanLuciferin: 4.5, ValidParticleFraction: 0.5, Moved: 12})
	evEnc, _ := MarshalEvent(ev)
	b.Run("result/encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for range b.N {
			buf = res.AppendJSON(buf[:0])
		}
	})
	b.Run("result/decode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var back Result
			if err := back.UnmarshalJSON(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("result/encode-reference", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := refResult(res).MarshalJSON(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("result/decode-reference", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var back refResult
			if err := back.UnmarshalJSON(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("event/encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for range b.N {
			buf, _ = AppendEvent(buf[:0], ev)
		}
	})
	b.Run("event/decode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := UnmarshalEvent(evEnc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("event/encode-reference", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := refMarshalEvent(ev); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("event/decode-reference", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := refUnmarshalEvent(evEnc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
