package jointstream

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// changesBudget is the most characters one CHANGES.md entry may take: what
// changed, the claim, and a link to its results file. Entries from
// changesBudgetFrom on are held to it; older ones are exempt.
const (
	changesBudget     = 1500
	changesBudgetFrom = 41
)

// changesEntry matches the line that opens or extends an entry: "PR n ..."
// (its follow-ups and review fixes included).
var changesEntry = regexp.MustCompile(`^PR (\d+)\b`)

// TestChangesEntryBudget holds each CHANGES.md entry for PR ≥ 41 to 1 500
// characters, counting every line that belongs to it: its "PR n" lines
// and the lines that continue them up to the next "PR" line.
func TestChangesEntryBudget(t *testing.T) {
	b, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	size := map[int]int{}
	pr := 0
	for _, line := range strings.Split(string(b), "\n") {
		if m := changesEntry.FindStringSubmatch(line); m != nil {
			pr, _ = strconv.Atoi(m[1])
		}
		if pr >= changesBudgetFrom {
			size[pr] += utf8.RuneCountInString(strings.TrimSpace(line))
		}
	}
	for pr, n := range size {
		if n > changesBudget {
			t.Errorf("CHANGES.md: the entry for PR %d is %d characters, over the budget of %d", pr, n, changesBudget)
		}
	}
}
