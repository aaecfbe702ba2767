package gompi

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// deletedName is one row of testdata/deleted.txt.
type deletedName struct {
	pattern *regexp.Regexp
	scope   []string
	change  string
	line    int
}

// TestDeletedNamesStayDeleted: no name a change deleted comes back. Each
// row of testdata/deleted.txt is a pattern, the files it is searched in
// and the change that deleted it; a line of a file in scope that the
// pattern matches fails the test. Every row's witness must match its
// pattern, so a row that could match nothing is caught too. The files
// are the tree's, less version control's and build outputs' hidden
// directories.
func TestDeletedNamesStayDeleted(t *testing.T) {
	rows := readDeleted(t, "testdata/deleted.txt")
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != "." && strings.HasPrefix(name, ".") && name != ".github" && name != ".claude" {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			files = append(files, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		var in []deletedName
		for _, r := range rows {
			if inScope(path, r.scope) {
				in = append(in, r)
			}
		}
		if len(in) == 0 {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(data), "\n") {
			for _, r := range in {
				if r.pattern.MatchString(line) {
					t.Errorf("%s:%d: %q, deleted by %q (testdata/deleted.txt:%d): %s", path, n+1, r.pattern, r.change, r.line, line)
				}
			}
		}
	}
}

// readDeleted parses the table: comment lines start with '#', and a row
// is four tab-separated fields — pattern, scope, change and witness.
func readDeleted(t *testing.T, path string) []deletedName {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []deletedName
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) != 4 {
			t.Fatalf("%s:%d: %d fields, want pattern, scope, change and witness", path, n, len(fields))
		}
		re, err := regexp.Compile(fields[0])
		if err != nil {
			t.Fatalf("%s:%d: %v", path, n, err)
		}
		if !re.MatchString(fields[3]) {
			t.Errorf("%s:%d: pattern %q does not match its witness %q", path, n, fields[0], fields[3])
		}
		rows = append(rows, deletedName{re, strings.Fields(fields[1]), fields[2], n})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// inScope reports whether path is in the pathspecs scope, as git reads
// them: included by some spec and excluded by none (':!spec').
func inScope(path string, scope []string) bool {
	in := false
	for _, spec := range scope {
		if ex, ok := strings.CutPrefix(spec, ":!"); ok {
			if specMatch(path, ex) {
				return false
			}
		} else if specMatch(path, spec) {
			in = true
		}
	}
	return in
}

// specMatch matches one pathspec: a glob, whose '*' matches any run of
// characters '/' included and '?' any one, against the whole path; else
// a path, which matches itself and everything under it.
func specMatch(path, spec string) bool {
	if !strings.ContainsAny(spec, "*?") {
		dir := strings.TrimSuffix(spec, "/")
		return path == dir || strings.HasPrefix(path, dir+"/")
	}
	re, ok := globs[spec]
	if !ok {
		var b strings.Builder
		b.WriteString("^")
		for _, c := range spec {
			switch c {
			case '*':
				b.WriteString(".*")
			case '?':
				b.WriteString(".")
			default:
				b.WriteString(regexp.QuoteMeta(string(c)))
			}
		}
		b.WriteString("$")
		re = regexp.MustCompile(b.String())
		globs[spec] = re
	}
	return re.MatchString(path)
}

// globs holds the pathspec globs compiled so far.
var globs = map[string]*regexp.Regexp{}
