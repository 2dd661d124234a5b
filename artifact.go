package surf

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"surf/internal/core"
	"surf/internal/gbt"
	"surf/internal/stats"
)

// Engine-level surrogate artifacts. The paper's deployment story
// (Section V-D) is "train once, reuse": surrogates are light enough
// to always live in memory while the data stays on disk, so the
// trained model is the durable asset. An artifact therefore carries
// more than the ensemble: the spec it was trained for (statistic,
// filter columns, target), the domain it was trained over and its
// training provenance travel with the weights, and LoadSurrogate
// refuses an artifact whose spec does not match the engine it is
// loaded into — a model is only meaningful next to the question it
// answers.
//
// Wire format: a header line "surfengine 2 <crc>\n" followed by one
// gob-encoded envelope, which nests the ensemble as opaque bytes in
// the internal/gbt wire form (fully re-validated on load). <crc> is
// the CRC-32 (IEEE) of every byte after the header, in hex; both
// readers check it before decoding, so a flipped byte is
// ErrBadArtifact rather than a silently different model. Version 1
// ("surfengine 1\n") has no checksum and still loads; readers reject
// higher versions rather than guess.

// artifactVersion is the current engine-artifact format version.
const artifactVersion = 2

// artifactMagic starts the header line of every engine artifact.
const artifactMagic = "surfengine"

// artifactEnvelope is the gob wire form of an engine artifact.
type artifactEnvelope struct {
	Info SurrogateInfo
	// CustomStatistic marks Info.Statistic as registered via
	// CustomStatistic rather than built in, so load failures can say
	// "register it first" instead of "corrupt artifact".
	CustomStatistic bool
	// Model is the ensemble in the internal gbt wire encoding.
	Model []byte
}

// SaveSurrogate persists the engine's current surrogate as a
// versioned artifact: the trained ensemble together with the spec it
// approximates (statistic, filter columns, target), the training
// domain and the training metadata exposed by SurrogateInfo.
// LoadSurrogate on an engine with a matching spec restores it with
// bit-identical predictions.
func (e *Engine) SaveSurrogate(w io.Writer) error {
	return e.SaveSurrogateContext(context.Background(), w)
}

// SaveSurrogateContext is SaveSurrogate with cancellation, checked
// before the artifact is assembled and before it is written.
func (e *Engine) SaveSurrogateContext(ctx context.Context, w io.Writer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sn := e.surrogate.Load()
	if sn.surr == nil {
		return ErrNoSurrogate
	}
	var model bytes.Buffer
	if err := sn.surr.Model().Save(&model); err != nil {
		return err
	}
	env := artifactEnvelope{
		Info:            sn.info,
		CustomStatistic: e.spec.Stat.IsCustom(),
		Model:           model.Bytes(),
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(env); err != nil {
		// An encode failure is not a bad artifact; ErrBadArtifact is
		// a load-side classification.
		return fmt.Errorf("surf: encode artifact: %w", err)
	}
	art := fmt.Appendf(nil, "%s %d %08x\n", artifactMagic, artifactVersion, crc32.ChecksumIEEE(body.Bytes()))
	_, err := w.Write(append(art, body.Bytes()...))
	return err
}

// LoadSurrogate restores a surrogate saved with SaveSurrogate and
// atomically swaps it in, rebuilding the compiled inference snapshot;
// predictions after the load are bit-identical to the saved engine's.
// The artifact's spec must match the engine's: same filter columns,
// same statistic (a custom statistic must be registered in this
// process first), same target column. Mismatches are reported with
// ErrBadArtifact before the engine's current surrogate is touched.
func (e *Engine) LoadSurrogate(r io.Reader) error {
	return e.LoadSurrogateContext(context.Background(), r)
}

// LoadSurrogateContext is LoadSurrogate with cancellation, checked
// before decoding and before the loaded model is swapped in.
func (e *Engine) LoadSurrogateContext(ctx context.Context, r io.Reader) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sn, err := e.loadArtifact(r)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	e.swapSnapshot(func(*snapshot) *snapshot { return sn })
	return nil
}

// decodeArtifactEnvelope reads the versioned-artifact header and gob
// envelope off r, checking a version-2 checksum before decoding;
// shared by LoadSurrogate and ReadSurrogateInfo.
func decodeArtifactEnvelope(r io.Reader) (artifactEnvelope, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(len(artifactMagic))
	if err != nil {
		return artifactEnvelope{}, fmt.Errorf("%w: reading header: %v", ErrBadArtifact, err)
	}
	if !bytes.Equal(magic, []byte(artifactMagic)) {
		return artifactEnvelope{}, fmt.Errorf("%w: unrecognized header %q", ErrBadArtifact, magic)
	}
	line, err := br.ReadString('\n')
	var version int
	var sum uint32
	n, _ := fmt.Sscanf(line, artifactMagic+" %d %x", &version, &sum)
	if err != nil || n == 0 {
		return artifactEnvelope{}, fmt.Errorf("%w: bad header %q", ErrBadArtifact, line)
	}
	if version < 1 || version > artifactVersion {
		return artifactEnvelope{}, fmt.Errorf("%w: format version %d (this build reads up to %d)",
			ErrBadArtifact, version, artifactVersion)
	}
	if (n == 2) != (version > 1) { // a checksum exactly from version 2 on
		return artifactEnvelope{}, fmt.Errorf("%w: bad header %q", ErrBadArtifact, line)
	}
	var body io.Reader = br
	if version > 1 {
		b, err := io.ReadAll(br)
		if err != nil {
			return artifactEnvelope{}, fmt.Errorf("%w: reading body: %v", ErrBadArtifact, err)
		}
		if got := crc32.ChecksumIEEE(b); got != sum {
			return artifactEnvelope{}, fmt.Errorf("%w: checksum %08x, header says %08x", ErrBadArtifact, got, sum)
		}
		body = bytes.NewReader(b)
	}
	var env artifactEnvelope
	if err := gob.NewDecoder(body).Decode(&env); err != nil {
		return artifactEnvelope{}, fmt.Errorf("%w: decode: %v", ErrBadArtifact, err)
	}
	return env, nil
}

// ReadSurrogateInfo reads the provenance metadata of a versioned
// engine artifact (written by SaveSurrogate) without loading the model
// into an engine: the statistic, filter columns, training domain and
// hyper-parameters the artifact declares. Deployment layers use it to
// validate an artifact against a serving spec — and to report model
// metadata — before paying for a full load. A version-2 artifact's
// checksum covers the ensemble bytes too, so a corrupted one is
// rejected here; the ensemble itself is decoded and re-validated only
// by LoadSurrogate.
func ReadSurrogateInfo(r io.Reader) (SurrogateInfo, error) {
	env, err := decodeArtifactEnvelope(r)
	if err != nil {
		return SurrogateInfo{}, err
	}
	return env.Info, nil
}

// loadArtifact decodes a versioned engine artifact and validates it
// against the engine's spec.
func (e *Engine) loadArtifact(r io.Reader) (*snapshot, error) {
	env, err := decodeArtifactEnvelope(r)
	if err != nil {
		return nil, err
	}
	if err := e.checkArtifactSpec(env); err != nil {
		return nil, err
	}
	model, err := gbt.Load(bytes.NewReader(env.Model))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadArtifact, err)
	}
	surr, err := core.NewSurrogateFromModel(model, e.Dims())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadArtifact, err)
	}
	return &snapshot{surr: surr, info: env.Info}, nil
}

// checkArtifactSpec verifies the artifact was trained for the spec
// this engine computes. The domain deliberately is not checked: data
// grows between training and serving, and the artifact's training
// domain stays inspectable via SurrogateInfo.
func (e *Engine) checkArtifactSpec(env artifactEnvelope) error {
	kind, err := stats.ParseKind(env.Info.Statistic)
	if err != nil {
		if env.CustomStatistic {
			return fmt.Errorf("%w: custom statistic %q is not registered in this process; register it with CustomStatistic before loading",
				ErrBadArtifact, env.Info.Statistic)
		}
		return fmt.Errorf("%w: unknown statistic %q", ErrBadArtifact, env.Info.Statistic)
	}
	if kind != e.spec.Stat {
		return fmt.Errorf("%w: artifact trained for statistic %q, engine computes %q",
			ErrBadArtifact, env.Info.Statistic, e.spec.Stat)
	}
	if got, want := env.Info.FilterColumns, e.filterNames(); !slices.Equal(got, want) {
		if len(got) != len(want) {
			// Also a dimensionality mismatch; satisfy both sentinels so
			// callers can errors.Is either.
			return fmt.Errorf("%w: %w: artifact trained over filter columns %v, engine uses %v",
				ErrBadArtifact, ErrDimMismatch, got, want)
		}
		return fmt.Errorf("%w: artifact trained over filter columns %v, engine uses %v",
			ErrBadArtifact, got, want)
	}
	if e.spec.Stat.NeedsTarget() {
		want := e.names[e.spec.TargetCol]
		if env.Info.TargetColumn != want {
			return fmt.Errorf("%w: artifact aggregates target column %q, engine aggregates %q",
				ErrBadArtifact, env.Info.TargetColumn, want)
		}
	}
	if len(env.Info.DomainMin) != e.Dims() || len(env.Info.DomainMax) != e.Dims() {
		return fmt.Errorf("%w: artifact domain has %d/%d bounds for %d filter columns",
			ErrBadArtifact, len(env.Info.DomainMin), len(env.Info.DomainMax), e.Dims())
	}
	return nil
}
