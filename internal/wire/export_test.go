package wire

// The internal decoders and their encoders, for the decode goldens.
var (
	DecodePred      = decodePred
	EncodePred      = encodePred
	DecodePred2     = decodePred2
	EncodePred2     = encodePred2
	DecodeExpr      = decodeExpr
	EncodeExpr      = encodeExpr
	DecodeSchemaMap = decodeSchemaMap
	EncodeSchemaMap = encodeSchemaMap
	DecodeDef       = decodeDef
	EncodeDef       = encodeDef
	DecodeLogical   = decodeLogical
	EncodeLogical   = encodeLogical
)
