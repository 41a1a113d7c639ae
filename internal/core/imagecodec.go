package core

import (
	"fmt"
	"sort"

	"atom/internal/aout"
	"atom/internal/build"
	"atom/internal/om"
)

// Wire format for the tool-image cache, so tool images persist through
// the process-wide build.DiskStore (the probe app uses rtl.FilesCodec). A
// blob is the linked image (in its own versioned aout encoding) and the
// site save table, sorted by name. Everything else a ToolImage holds is
// derived: Unmarshal lifts the decoded image and classifies its wrapped
// routines with the same extractInlineTemplates the build calls, so the
// inline templates cannot drift from the file they come from. The tool
// identity has no wire form — the Tool value carries the user's Go
// instrumentation closure — so toolImageFor re-attaches tool and key on
// a private copy after a disk hit (the key already proves the sources
// and options match). The version string is mixed into the cache key,
// so a format change can never decode an old blob.
const imageCodecVersion = "atom-img/v4\n"

// imageCodec serializes a *ToolImage minus its tool identity.
type imageCodec struct{}

func (imageCodec) Marshal(ti *ToolImage) ([]byte, error) {
	e := build.NewEnc(imageCodecVersion)
	e.Blob(ti.img.Encode())
	e.U32(uint32(len(ti.siteSave)))
	for _, n := range savedNames(ti.siteSave) {
		e.Str(n)
		e.U32(uint32(ti.siteSave[n]))
	}
	return e.Bytes(), nil
}

func (imageCodec) Unmarshal(blob []byte) (*ToolImage, error) {
	d := build.NewDec(blob, imageCodecVersion)
	imgRaw := d.Blob()
	ns := d.Len()
	siteSave := make(map[string]om.RegSet, ns)
	for i := 0; i < ns; i++ {
		n := d.Str()
		siteSave[n] = om.RegSet(d.U32())
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	img, err := aout.Decode(imgRaw)
	if err != nil {
		return nil, fmt.Errorf("atom: imageCodec: image: %w", err)
	}
	ti := &ToolImage{img: img, siteSave: siteSave}
	if wrapped := wrappedProcs(img, savedNames(siteSave)); len(wrapped) > 0 {
		prog, err := om.BuildCtx(nil, img)
		if err != nil {
			return nil, fmt.Errorf("atom: imageCodec: image: %w", err)
		}
		ti.inline = extractInlineTemplates(prog, img, wrapped)
	}
	return ti, nil
}

// savedNames returns the defined procedures of a save table, sorted.
func savedNames(siteSave map[string]om.RegSet) []string {
	names := make([]string, 0, len(siteSave))
	for n := range siteSave {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
