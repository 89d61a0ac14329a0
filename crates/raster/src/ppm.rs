//! PPM image output — lets the examples visualize what the "hardware" sees
//! (the repository's stand-in for Figure 5's screenshots).

use crate::framebuffer::FrameBuffer;
use std::io::{self, Write};
use std::path::Path;

/// Writes the color buffer as a binary PPM (P6, the one gray intensity on
/// all three channels). The image is flipped vertically so row 0 of the
/// file is the *top* of the window (window coordinates grow upward, image
/// files grow downward).
pub fn write_ppm<W: Write>(fb: &FrameBuffer, mut out: W) -> io::Result<()> {
    write!(out, "P6\n{} {}\n255\n", fb.width(), fb.height())?;
    let mut row = Vec::with_capacity(fb.width() * 3);
    for y in (0..fb.height()).rev() {
        row.clear();
        for x in 0..fb.width() {
            let gray = (fb.read_pixel(x, y).clamp(0.0, 1.0) * 255.0).round() as u8;
            row.extend_from_slice(&[gray; 3]);
        }
        out.write_all(&row)?;
    }
    Ok(())
}

/// Writes the color buffer to a PPM file at `path`.
pub fn save_ppm(fb: &FrameBuffer, path: impl AsRef<Path>) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_ppm(fb, io::BufWriter::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framebuffer::WHITE;
    use crate::stats::HwStats;

    #[test]
    fn header_and_size() {
        let fb = FrameBuffer::new(4, 3);
        let mut buf = Vec::new();
        write_ppm(&fb, &mut buf).unwrap();
        let header = b"P6\n4 3\n255\n";
        assert_eq!(&buf[..header.len()], header);
        assert_eq!(buf.len(), header.len() + 4 * 3 * 3);
    }

    #[test]
    fn vertical_flip() {
        let mut fb = FrameBuffer::new(2, 2);
        let mut st = HwStats::default();
        // Window (0, 1) is the top-left pixel on screen.
        fb.write_pixel(0, 1, WHITE, &mut st);
        let mut buf = Vec::new();
        write_ppm(&fb, &mut buf).unwrap();
        let data = &buf[b"P6\n2 2\n255\n".len()..];
        assert_eq!(&data[0..3], &[255, 255, 255], "top-left of the image");
        assert_eq!(&data[3..6], &[0, 0, 0]);
    }

    #[test]
    fn save_to_disk() {
        let fb = FrameBuffer::new(8, 8);
        let dir = std::env::temp_dir().join("hwspatial_ppm_test.ppm");
        save_ppm(&fb, &dir).unwrap();
        let meta = std::fs::metadata(&dir).unwrap();
        assert!(meta.len() > 0);
        let _ = std::fs::remove_file(&dir);
    }
}
