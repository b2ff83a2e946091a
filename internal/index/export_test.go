package index

import "repro/internal/oodb"

// DecodeAuxTuple exposes a 3-tuple's contents to the external tests:
// its parents and, as strings, its primary-key pointers.
func DecodeAuxTuple(raw []byte) (parents []oodb.OID, pointers []string, err error) {
	t, err := decodeAux(raw)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range t.pointers {
		pointers = append(pointers, string(p))
	}
	return t.parents, pointers, nil
}
