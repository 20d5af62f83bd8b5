package vetkit

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression and convention directives, in the spirit of //lint: and
// //go:build markers:
//
//	//pdlvet:ignore <analyzer> [reason...]
//
// on a finding's line (or the line above it) suppresses that analyzer's
// findings there; `//pdlvet:ignore all` suppresses every analyzer. The
// reason is free text for the reviewer — pdlvet never reports a
// suppression without one being written down in the source.
//
//	//pdlvet:holds <lock>[,<lock>...]
//
// on a function's doc comment declares the locking convention "the
// caller holds <lock>": analyzers seed the function's entry lock set
// with it, and lockorder requires resolvable callers to actually hold
// it. Lock names are the model's class names (e.g. shard, flash,
// channel, maptable, dcache, bus).
const (
	ignoreDirective = "//pdlvet:ignore"
	holdsDirective  = "//pdlvet:holds"
)

// ignoreSet records, per file line, which analyzers are suppressed.
type ignoreSet map[string]map[int][]string // filename -> line -> analyzer names

// ignoresOf collects the //pdlvet:ignore directives of a package.
func ignoresOf(fset *token.FileSet, files []*ast.File) ignoreSet {
	ig := make(ignoreSet)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignoreDirective)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue // malformed: no analyzer named, ignore the ignore
				}
				pos := fset.Position(c.Pos())
				byLine := ig[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					ig[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], fields[0])
			}
		}
	}
	return ig
}

// suppressed reports whether analyzer's finding at pos is covered by a
// directive on the same line or the line directly above.
func (ig ignoreSet) suppressed(analyzer string, pos token.Position) bool {
	byLine := ig[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range byLine[line] {
			if name == analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}

// HoldsOf parses the //pdlvet:holds directive of a function declaration,
// returning the declared lock class names (nil if none).
func HoldsOf(decl *ast.FuncDecl) []string {
	if decl.Doc == nil {
		return nil
	}
	var out []string
	for _, c := range decl.Doc.List {
		out = appendHolds(out, c.Text)
	}
	return out
}

// appendHolds appends the lock names of one //pdlvet:holds comment line.
func appendHolds(out []string, text string) []string {
	rest, ok := strings.CutPrefix(text, holdsDirective)
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return out
	}
	for _, f := range strings.Fields(rest) {
		for _, name := range strings.Split(f, ",") {
			if name != "" {
				out = append(out, name)
			}
		}
	}
	return out
}
