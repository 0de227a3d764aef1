package wire

import (
	"repro/internal/core"
	"repro/internal/expr"
)

// The internal codecs, for the decode goldens.
var (
	EncodePred  = encodePred
	EncodePred2 = encodePred2
	EncodeExpr  = encodeExpr
)

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
