// Model codecs: the one place in the repository that knows how to turn a
// trained tagger.Model into bytes and back. The bundle file format embeds
// these, and internal/core's checkpoint writer delegates to them, so model
// serialisation cannot fork into parallel wire formats again.
//
// Wire form: one kind byte, then the payload.
//
//	'C'  CRF     crf.Save bytes
//	'R'  BiLSTM  lstm.Save bytes
//	'E'  Ensemble: uint8 mode, uint8 member count, then per member a
//	     uint32 length prefix + a recursively encoded model
package bundle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/crf"
	"repro/internal/lstm"
	"repro/internal/tagger"
)

const (
	kindCRF      = 'C'
	kindRNN      = 'R'
	kindEnsemble = 'E'
)

// ModelKindName names a model the way manifests and inspection tools print
// it: "CRF", "RNN", "ensemble(intersection)".
func ModelKindName(m tagger.Model) string {
	switch m := m.(type) {
	case *crf.Model:
		return "CRF"
	case *lstm.Model:
		return "RNN"
	case *tagger.Ensemble:
		return fmt.Sprintf("ensemble(%s)", m.Mode)
	default:
		return fmt.Sprintf("unknown(%T)", m)
	}
}

// EncodeModel serialises a trained model (CRF, BiLSTM, or an ensemble of
// encodable members) to w. Unknown model kinds — test doubles, future
// backends — fail with ErrUnknownModel so callers can decide between
// skipping the artifact (checkpoints) and aborting (bundles).
func EncodeModel(w io.Writer, m tagger.Model) error {
	switch m := m.(type) {
	case *crf.Model:
		if _, err := w.Write([]byte{kindCRF}); err != nil {
			return err
		}
		return m.Save(w)
	case *lstm.Model:
		if _, err := w.Write([]byte{kindRNN}); err != nil {
			return err
		}
		return m.Save(w)
	case *tagger.Ensemble:
		if len(m.Members) == 0 || len(m.Members) > 255 {
			return fmt.Errorf("%w: ensemble with %d members", ErrUnknownModel, len(m.Members))
		}
		if _, err := w.Write([]byte{kindEnsemble, byte(m.Mode), byte(len(m.Members))}); err != nil {
			return err
		}
		for _, member := range m.Members {
			var buf bytes.Buffer
			if err := EncodeModel(&buf, member); err != nil {
				return err
			}
			var n [4]byte
			binary.BigEndian.PutUint32(n[:], uint32(buf.Len()))
			if _, err := w.Write(n[:]); err != nil {
				return err
			}
			if _, err := w.Write(buf.Bytes()); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("%w: %T", ErrUnknownModel, m)
	}
}

// DecodeModel reads a model previously written by EncodeModel. The reader
// should be scoped to exactly one encoded model (the model packages' gob
// decoders buffer reads, so trailing data in r would be consumed). Every
// failure wraps ErrCorrupt, or ErrUnknownModel for an unknown kind byte; a
// model it accepts can tag and encode again.
func DecodeModel(r io.Reader) (tagger.Model, error) {
	var kind [1]byte
	if _, err := io.ReadFull(r, kind[:]); err != nil {
		return nil, fmt.Errorf("%w: model kind: %v", ErrCorrupt, err)
	}
	switch kind[0] {
	case kindCRF:
		return corrupt(crf.Load(r))
	case kindRNN:
		return corrupt(lstm.Load(r))
	case kindEnsemble:
		var head [2]byte
		if _, err := io.ReadFull(r, head[:]); err != nil {
			return nil, fmt.Errorf("%w: ensemble header: %v", ErrCorrupt, err)
		}
		mode := tagger.EnsembleMode(head[0])
		count := int(head[1])
		if count == 0 {
			return nil, fmt.Errorf("%w: ensemble with no members", ErrCorrupt)
		}
		e := &tagger.Ensemble{Mode: mode}
		for i := 0; i < count; i++ {
			var n [4]byte
			if _, err := io.ReadFull(r, n[:]); err != nil {
				return nil, fmt.Errorf("%w: ensemble member %d length: %v", ErrCorrupt, i, err)
			}
			// The length prefix is untrusted: read through a limit instead of
			// allocating it up front, so memory tracks the bytes that arrive.
			want := int64(binary.BigEndian.Uint32(n[:]))
			payload, err := io.ReadAll(io.LimitReader(r, want))
			if err != nil {
				return nil, fmt.Errorf("%w: ensemble member %d: %v", ErrCorrupt, i, err)
			}
			if int64(len(payload)) < want {
				return nil, fmt.Errorf("%w: ensemble member %d: %d of %d bytes", ErrCorrupt, i, len(payload), want)
			}
			member, err := DecodeModel(bytes.NewReader(payload))
			if err != nil {
				return nil, err
			}
			e.Members = append(e.Members, member)
		}
		return e, nil
	default:
		return nil, fmt.Errorf("%w: kind byte %q", ErrUnknownModel, kind[0])
	}
}

// corrupt wraps a model package's load error in ErrCorrupt.
func corrupt[M tagger.Model](m M, err error) (tagger.Model, error) {
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return m, nil
}
