package wire

import (
	"repro/internal/core"
	"repro/internal/expr"
)

// The internal codecs, for the decode goldens.
func EncodePred(p expr.Pred) ([]byte, error)   { return put(p, putPred) }
func EncodePred2(p expr.Pred2) ([]byte, error) { return put(p, putPred2) }
func EncodeExpr(e expr.Expr) ([]byte, error)   { return put(e, putExpr) }

// EncodePartitionBytes encodes a partition plan; nil encodes as no bytes.
func EncodePartitionBytes(p *core.PartitionPlan) ([]byte, error) {
	if p == nil {
		return nil, nil
	}
	return Marshal(p, partitionFields)
}

// put returns the message that fn writes of v.
func put[V any](v V, fn func(*Codec, V)) ([]byte, error) {
	var c Codec
	fn(&c, v)
	return c.b, c.err
}

func DecodePred(p []byte, depth int) (expr.Pred, error) { return decodePred(decoder(), p, depth) }
func DecodePred2(p []byte, depth int) (expr.Pred2, error) {
	return decodePred2(decoder(), p, depth)
}
func DecodeExpr(p []byte, depth int) (expr.Expr, error) { return decodeExpr(decoder(), p, depth) }

func decoder() *Codec { return &Codec{dec: true} }

func EncodeSchemaMap(m *expr.SchemaMap) ([]byte, error) { return Marshal(m, schemaMapFields) }
func DecodeSchemaMap(p []byte) (*expr.SchemaMap, error) { return unmarshalNew(p, schemaMapFields) }
func EncodeDef(d *core.Def) ([]byte, error)             { return Marshal(d, defFields) }
func DecodeDef(p []byte) (*core.Def, error)             { return unmarshalNew(p, defFields) }
func EncodeLogical(l *core.Logical) ([]byte, error)     { return Marshal(l, logicalFields) }
func DecodeLogical(p []byte) (*core.Logical, error)     { return unmarshalNew(p, logicalFields) }

func unmarshalNew[T any](p []byte, decl func(*Codec, *T)) (*T, error) {
	v := new(T)
	if err := Unmarshal(p, v, decl); err != nil {
		return nil, err
	}
	return v, nil
}
