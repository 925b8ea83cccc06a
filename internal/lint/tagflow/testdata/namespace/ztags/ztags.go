// Package ztags collides with package tags from across a package
// boundary — the analyzer's view is module-wide.
package ztags

// TagMirror reuses tags.TagSAM's value (17).
const TagMirror = 17 // want "duplicates tags.TagSAM"
